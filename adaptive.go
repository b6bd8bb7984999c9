package repro

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sqlparse"
)

// AdaptiveSystem wraps a System and learns from the queries it serves: every
// explored query is folded into the workload statistics, so the count tables
// — and therefore future category trees — track the live query stream
// instead of a frozen log. This is the online continuation of the paper's
// offline preprocessing phase.
//
// Concurrency model: readers never block. The current System — relation,
// statistics, derived count tables, and a generation counter — is an
// immutable snapshot behind an atomic pointer. Learn clones the statistics
// off the hot path, folds the new queries into the clone, and publishes the
// result with one atomic store; in-flight explorations keep the snapshot
// they loaded. The generation counter stamps every snapshot, so the tree
// cache's keys from superseded generations simply stop matching (see
// DESIGN.md §8). All methods are safe for concurrent use.
type AdaptiveSystem struct {
	// learnMu serializes writers (clone → fold → publish); readers never
	// take it.
	learnMu sync.Mutex
	cur     atomic.Pointer[System]
	// learned counts queries folded in since construction.
	learned atomic.Int64
	// warm is the running predictive pre-warmer, nil when warming is off.
	// Always read through the atomic pointer (StartWarmer/StopWarmer swap
	// it); warmer code itself must go through System()/Snapshot for the
	// current snapshot, never through cur directly.
	warm atomic.Pointer[Warmer]
}

// Adaptive wraps the system for online learning. The system must have been
// built from a raw workload (WorkloadSQL or WorkloadReader): incremental
// updates need the preprocessing configuration and, when correlations are
// enabled, the retained per-query conditions.
func (s *System) Adaptive() (*AdaptiveSystem, error) {
	if s.wl == nil {
		return nil, fmt.Errorf("repro: Adaptive requires a system built from a raw workload")
	}
	a := &AdaptiveSystem{}
	a.cur.Store(s)
	return a, nil
}

// Explore runs one query end to end against the current snapshot: execute,
// build the tree with the given technique and options (through the tree
// cache when the system has one), and return the tree plus the result size.
// Passing learn folds the query into the statistics afterwards.
func (a *AdaptiveSystem) Explore(sql string, tech Technique, opts Options, learn bool) (*Tree, int, error) {
	tree, n, _, err := a.ExploreCtx(context.Background(), sql, tech, opts, learn)
	return tree, n, err
}

// ExploreCtx is Explore honoring a request context and reporting whether the
// tree came from the cache. Cancellation abandons the categorization (no
// partial trees) and skips learning.
func (a *AdaptiveSystem) ExploreCtx(ctx context.Context, sql string, tech Technique, opts Options, learn bool) (*Tree, int, bool, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, 0, false, err
	}
	out, err := a.ExploreParsedWith(ctx, q, tech, opts, ServePolicy{}, learn)
	if err != nil {
		return nil, 0, false, err
	}
	return out.Tree, out.Tree.Root.Size(), out.Hit, nil
}

// ExploreParsedWith is the policy-honoring exploration over an already-parsed
// query: serve through the current snapshot under the resilience policy
// (server deadline, degradation ladder — see System.ServeParsedWith), then
// optionally fold the query into the statistics. Degraded serves still learn:
// the user asked the query either way, and learning cost is independent of
// how the tree was built.
func (a *AdaptiveSystem) ExploreParsedWith(ctx context.Context, q *Query, tech Technique, opts Options, pol ServePolicy, learn bool) (ServeOutcome, error) {
	sys := a.cur.Load()
	out, err := sys.ServeParsedWith(ctx, q, tech, opts, pol)
	if err != nil {
		return out, err
	}
	if learn {
		a.learn(q)
	}
	return out, nil
}

// LearnQuery folds one already-parsed query into the workload statistics —
// the learning half of ExploreParsedWith, for callers that served the tree
// another way (e.g. the HTTP layer's cache-hit fast path).
func (a *AdaptiveSystem) LearnQuery(q *Query) {
	if q != nil {
		a.learn(q)
	}
}

// Learn folds one query into the workload statistics without executing it
// (e.g. queries observed elsewhere in the application).
func (a *AdaptiveSystem) Learn(sql string) error {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return err
	}
	a.learn(q)
	return nil
}

// LearnBatch folds several queries in one snapshot swap, amortizing the
// clone. It fails on the first malformed query without learning any.
func (a *AdaptiveSystem) LearnBatch(sqls []string) error {
	qs := make([]*sqlparse.Query, len(sqls))
	for i, sql := range sqls {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			return fmt.Errorf("repro: batch query %d: %w", i, err)
		}
		qs[i] = q
	}
	if len(qs) > 0 {
		a.learn(qs...)
	}
	return nil
}

// learn clones the current snapshot's mutable state, folds the queries in,
// and publishes the successor snapshot. Readers racing with the swap keep
// whichever snapshot they loaded — both are internally consistent. Queries
// the statistics skip (those naming another table) are not learned, and a
// learn that folds in nothing publishes nothing: the generation, and with it
// every cached tree, stays current.
func (a *AdaptiveSystem) learn(qs ...*sqlparse.Query) {
	a.learnMu.Lock()
	defer a.learnMu.Unlock()
	old := a.cur.Load()
	next := &System{
		rel:   old.rel,
		stats: old.stats.Clone(),
		opts:  old.opts,
		wl:    old.wl.Clone(),
		wcfg:  old.wcfg,
		cache: old.cache,
		gen:   old.gen + 1,
		resil: old.resil,
		dur:   old.dur,
	}
	if old.corr != nil {
		next.corr = old.corr.Clone()
	}
	folded := make([]*sqlparse.Query, 0, len(qs))
	for _, q := range qs {
		if !next.stats.AddQuery(q, next.wcfg) {
			continue
		}
		folded = append(folded, q)
		next.wl.Queries = append(next.wl.Queries, q)
		if next.corr != nil {
			next.corr.Add(q, next.wcfg)
		}
	}
	if len(folded) == 0 {
		return
	}
	a.cur.Store(next)
	a.learned.Add(int64(len(folded)))
	if w := a.warm.Load(); w != nil {
		// After the publish, so the warmer's cycle sees the new snapshot.
		w.observe(folded)
	}
}

// Learned reports how many queries have been folded in since construction.
func (a *AdaptiveSystem) Learned() int {
	return int(a.learned.Load())
}

// WorkloadSize returns the current number of mined queries (original
// workload plus everything learned).
func (a *AdaptiveSystem) WorkloadSize() int {
	return a.cur.Load().stats.N()
}

// Generation returns the current snapshot's generation counter: 0 at
// construction, +1 per Learn/LearnBatch/learning-Explore that folds in at
// least one query.
func (a *AdaptiveSystem) Generation() uint64 {
	return a.cur.Load().gen
}

// Snapshot runs f with the current immutable System snapshot, for read-only
// operations beyond Explore (rendering stats, building rankers). The
// snapshot stays valid — but possibly stale — after f returns; f must not
// mutate it.
func (a *AdaptiveSystem) Snapshot(f func(*System)) {
	f(a.cur.Load())
}

// System returns the current immutable snapshot directly.
func (a *AdaptiveSystem) System() *System {
	return a.cur.Load()
}
