package repro

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/sqlparse"
)

// Predictive cache pre-warming (DESIGN.md §13): every published Learn bumps
// the statistics generation, which makes every cached tree stale at once. The
// warmer rides behind the learn stream and re-categorizes the most-requested
// workload signatures into the new generation before users ask again, so the
// foreground path finds warm entries instead of paying stale-miss builds in a
// thundering herd.
//
// Warming is strictly background work: each build takes an admission slot
// only via Limiter.TryAcquireIdle — a free slot with an empty queue — so a
// warmer can never queue ahead of, or shed, foreground traffic. Builds run
// under a wall budget without the degradation ladder: a degraded tree is
// uncacheable, so warming one would be pure waste.

// defaultWarmBudget bounds one warming build when WarmerConfig.Budget is
// unset.
const defaultWarmBudget = 2 * time.Second

// WarmerConfig tunes a Warmer.
type WarmerConfig struct {
	// TopK is how many of the most-requested signatures each cycle warms;
	// <= 0 disables warming (StartWarmer returns nil).
	TopK int
	// Budget is the wall budget for one warming build; default 2s. A build
	// that blows it is dropped (the foreground path will build on demand) —
	// warming never uses the degradation ladder.
	Budget time.Duration
	// Tech and Opts are the technique and categorizer options warmed trees
	// are built (and keyed) with; the zero Tech is CostBased.
	Tech Technique
	// Opts are the categorizer options for warmed builds — they must match
	// the foreground requests' options or the warmed keys will never hit.
	Opts Options
	// Limiter is the serving path's admission controller; warming takes
	// idle-only slots from it (never queueing). nil warms unthrottled.
	Limiter *resilience.Limiter
}

// WarmerStats is a point-in-time snapshot of warming activity (surfaced in
// /healthz).
type WarmerStats struct {
	// Cycles counts completed warm cycles; SkippedCycles the ones abandoned
	// because the statistics generation had not moved since the last cycle.
	Cycles        uint64 `json:"cycles"`
	SkippedCycles uint64 `json:"skippedCycles"`
	// Warmed counts trees built into the cache by warming;
	// AlreadyCached counts top-K signatures found warm already; Busy counts
	// signatures skipped because the limiter had no idle slot; Errors counts
	// failed warming builds (budget blown, build error).
	Warmed        uint64 `json:"warmed"`
	AlreadyCached uint64 `json:"alreadyCached"`
	Busy          uint64 `json:"busy"`
	Errors        uint64 `json:"errors"`
	// Panics counts warm cycles that panicked (contained at the cycle
	// boundary; the warmer keeps running).
	Panics uint64 `json:"panics"`
	// Tracked is how many distinct signatures the warmer has observed; TopK
	// echoes the configuration.
	Tracked int `json:"tracked"`
	TopK    int `json:"topK"`
}

// Warmer is the background pre-warming worker of an AdaptiveSystem. Create
// with StartWarmer, stop with StopWarmer; all methods are safe for concurrent
// use.
type Warmer struct {
	// current returns the published snapshot (AdaptiveSystem.System): the
	// warmer holds no AdaptiveSystem, so it cannot read the owner's fields
	// around the atomic load.
	current func() *System
	cfg     WarmerConfig

	mu     sync.Mutex
	counts map[string]*warmSig
	seq    uint64
	// lastGen is the generation the previous cycle warmed, valid once
	// cycled is set.
	lastGen uint64
	cycled  bool

	notify chan struct{} // coalescing learn signal (capacity 1)
	quit   chan struct{}
	done   chan struct{}

	cycles  atomic.Uint64
	skipped atomic.Uint64
	warmed  atomic.Uint64
	hits    atomic.Uint64
	busy    atomic.Uint64
	errs    atomic.Uint64
	panics  atomic.Uint64
}

// warmSig is one observed workload signature: the first-seen parsed query
// (queries are immutable after parse), its request count, and its arrival
// rank for deterministic tie-breaking.
type warmSig struct {
	q     *sqlparse.Query
	count uint64
	seq   uint64
}

// StartWarmer starts background pre-warming on the learn stream. It returns
// nil without starting anything when cfg.TopK <= 0 or a warmer is already
// running. The caller owns the lifecycle: StopWarmer stops the worker and
// waits for it.
func (a *AdaptiveSystem) StartWarmer(cfg WarmerConfig) *Warmer {
	if cfg.TopK <= 0 {
		return nil
	}
	if cfg.Budget <= 0 {
		cfg.Budget = defaultWarmBudget
	}
	w := &Warmer{
		current: a.System,
		cfg:     cfg,
		counts:  make(map[string]*warmSig),
		notify:  make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if !a.warm.CompareAndSwap(nil, w) {
		return nil
	}
	go func() {
		defer close(w.done)
		w.protectedWarmLoop()
	}()
	return w
}

// StopWarmer stops the running warmer (if any) and waits for its goroutine
// to exit. Idempotent.
func (a *AdaptiveSystem) StopWarmer() {
	if w := a.warm.Swap(nil); w != nil {
		close(w.quit)
		<-w.done
	}
}

// WarmerStats snapshots the running warmer's counters; ok is false when no
// warmer is running.
func (a *AdaptiveSystem) WarmerStats() (stats WarmerStats, ok bool) {
	w := a.warm.Load()
	if w == nil {
		return WarmerStats{}, false
	}
	return w.snapshot(), true
}

func (w *Warmer) snapshot() WarmerStats {
	w.mu.Lock()
	tracked := len(w.counts)
	w.mu.Unlock()
	return WarmerStats{
		Cycles:        w.cycles.Load(),
		SkippedCycles: w.skipped.Load(),
		Warmed:        w.warmed.Load(),
		AlreadyCached: w.hits.Load(),
		Busy:          w.busy.Load(),
		Errors:        w.errs.Load(),
		Panics:        w.panics.Load(),
		Tracked:       tracked,
		TopK:          w.cfg.TopK,
	}
}

// observe records learned queries' signatures and pokes the worker. Called
// from the learn path after the new snapshot is published; the send is
// non-blocking (the channel coalesces bursts into one wake-up).
func (w *Warmer) observe(qs []*sqlparse.Query) {
	w.mu.Lock()
	for _, q := range qs {
		sig := q.Signature()
		e := w.counts[sig]
		if e == nil {
			w.seq++
			e = &warmSig{q: q, seq: w.seq}
			w.counts[sig] = e
		}
		e.count++
	}
	w.mu.Unlock()
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// protectedWarmLoop drains learn notifications until stopped, running each
// cycle behind a panic boundary so a categorizer bug during warming cannot
// take the process (or the loop) down.
func (w *Warmer) protectedWarmLoop() {
	for {
		select {
		case <-w.quit:
			return
		case <-w.notify:
		}
		w.protectedWarmCycle()
	}
}

func (w *Warmer) protectedWarmCycle() {
	resilience.Protect(
		func(*resilience.PanicError) { w.panics.Add(1) },
		func() (struct{}, error) {
			w.warmCycle()
			return struct{}{}, nil
		},
	)
}

// warmCycle warms the current top-K signatures against the current snapshot.
// One cycle may cover several coalesced learns; a cycle that finds the
// generation the previous one warmed is a no-op.
func (w *Warmer) warmCycle() {
	sys := w.current()
	gen := sys.Generation()
	w.mu.Lock()
	if w.cycled && w.lastGen == gen {
		w.mu.Unlock()
		w.skipped.Add(1)
		return
	}
	w.lastGen, w.cycled = gen, true
	top := make([]warmSig, 0, len(w.counts))
	for _, e := range w.counts {
		top = append(top, *e)
	}
	w.mu.Unlock()

	sort.Slice(top, func(i, j int) bool {
		if top[i].count != top[j].count {
			return top[i].count > top[j].count
		}
		return top[i].seq < top[j].seq
	})
	if len(top) > w.cfg.TopK {
		top = top[:w.cfg.TopK]
	}
	for _, e := range top {
		select {
		case <-w.quit:
			return
		default:
		}
		if _, ok := sys.Peek(e.q, w.cfg.Tech, w.cfg.Opts); ok {
			w.hits.Add(1)
			continue
		}
		release, ok := w.cfg.Limiter.TryAcquireIdle()
		if !ok {
			// Foreground traffic owns the limiter right now; skip rather than
			// queue. The signature stays tracked for the next cycle.
			w.busy.Add(1)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), w.cfg.Budget)
		// No degradation ladder: a degraded tree is never stored, so warming
		// one would burn a slot for nothing. Miss the budget → drop the build.
		_, err := sys.ServeParsedWith(ctx, e.q, w.cfg.Tech, w.cfg.Opts, ServePolicy{})
		cancel()
		release()
		if err != nil {
			w.errs.Add(1)
		} else {
			w.warmed.Add(1)
		}
	}
	w.cycles.Add(1)
}
