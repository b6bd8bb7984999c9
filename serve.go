package repro

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/category"
	"repro/internal/relation"
	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
	"repro/internal/sqlparse"
	"repro/internal/treecache"
)

// The concurrent serving path (DESIGN.md §8): a request's SQL is parsed and
// reduced to a canonical signature; (signature, technique, options,
// stats-generation) keys a bounded singleflight tree cache; workload
// statistics live in immutable generation-stamped snapshots. The paper
// computes trees at query time from a fixed workload-stats table (§4.2), so
// under a fixed generation the tree is a pure function of the key — which is
// what makes the memoization sound.

// CacheStats is a point-in-time snapshot of the tree cache's counters.
type CacheStats = treecache.Stats

// ServePolicy is the per-request resilience budget (DESIGN.md §10): a hard
// server-side deadline, the soft budget that triggers degradation, and the
// degradation switch. The zero value reproduces the pre-resilience serving
// path exactly.
type ServePolicy = resilience.Policy

// Degradation reports how far down the ladder a served tree was built.
type Degradation = resilience.Degradation

// Degradation rungs: full fidelity, Attr-Cost baseline, flat SHOWTUPLES.
const (
	DegradeNone     = resilience.DegradeNone
	DegradeAttrCost = resilience.DegradeAttrCost
	DegradeFlat     = resilience.DegradeFlat
)

// ServeOutcome is one serving-path result: the tree, whether it came from
// the cache, and whether (and how far) it was degraded. A degraded tree
// never reports Hit — degraded results are delivered to the singleflight
// waiters that co-requested them but are never stored in the cache.
type ServeOutcome struct {
	Tree     *Tree
	Hit      bool
	Degraded Degradation
	// Memo is the hit's cache-entry slot for a rendered response; nil
	// unless Hit.
	Memo *RenderMemo
}

// served is the tree cache's value type: the tree plus its degradation rung,
// so singleflight waiters joining a degraded compute learn what they got.
// Stored entries are always full fidelity (degraded computes are not
// inserted). memo is the entry's render memo, nil for degraded trees.
type served struct {
	tree *Tree
	deg  Degradation
	memo *RenderMemo
}

// entry wraps a full-fidelity tree as the tree-cache value to store under
// key, with its byte size. The value's render memo charges what it stores
// to that entry, and to no later entry recomputed under the same key.
func (s *System) entry(key string, tree *Tree) (served, int64) {
	v := served{tree: tree, memo: &RenderMemo{}}
	c := s.cache
	v.memo.charge = func(n int64) { treecache.Grow(c, key, v, n) }
	return v, treeBytes(tree)
}

// RenderMemo is one tree-cache entry's memoized response (DESIGN.md §8).
// Under one statistics generation the entry's tree is fixed, so a rendering
// of it under fixed bounds is too: a server renders it once and replays the
// bytes on later hits. The memo holds one body, rendered under the
// (maxDepth, maxChildren) pair of the first Store; its bytes count against
// the cache's byte bound, and eviction drops them with the tree. A nil
// *RenderMemo holds and stores nothing.
type RenderMemo struct {
	slot   atomic.Pointer[renderedBody]
	charge func(n int64) // grows the owning entry's size in the tree cache
}

type renderedBody struct {
	maxDepth, maxChildren int
	body                  []byte
}

// Load returns the stored body if it was rendered under these bounds. The
// bytes are shared: do not modify them.
func (m *RenderMemo) Load(maxDepth, maxChildren int) ([]byte, bool) {
	if m == nil {
		return nil, false
	}
	r := m.slot.Load()
	if r == nil || r.maxDepth != maxDepth || r.maxChildren != maxChildren {
		return nil, false
	}
	return r.body, true
}

// Store fills an empty memo with body, rendered under these bounds, and
// charges its length to the cache entry; the memo keeps body, so the caller
// must not modify it afterwards. A filled memo keeps its body, so concurrent
// first stores fill it once.
func (m *RenderMemo) Store(maxDepth, maxChildren int, body []byte) {
	if m == nil || m.slot.Load() != nil {
		return
	}
	r := &renderedBody{maxDepth: maxDepth, maxChildren: maxChildren, body: body}
	if m.slot.CompareAndSwap(nil, r) {
		m.charge(int64(len(r.body)))
	}
}

// errSoftBudget is the cancellation cause of a degradation step's soft
// budget, distinguishing "this rung was too slow, try a cheaper one" from
// the hard deadline and from client cancellation.
var errSoftBudget = errors.New("repro: soft categorization budget exceeded")

// resilienceCounters is shared (by pointer) across an AdaptiveSystem's
// snapshots, like the relation and the tree cache: the serving path's
// degradation and panic counts are properties of the serving process, not of
// one statistics generation.
type resilienceCounters struct {
	panics       atomic.Uint64
	degradedAttr atomic.Uint64
	degradedFlat atomic.Uint64
}

// ResilienceStats is a point-in-time snapshot of the serving path's
// resilience counters (surfaced in /healthz).
type ResilienceStats struct {
	// Panics counts categorizer panics converted to errors at a recover()
	// boundary — both the singleflight compute boundary and the uncached
	// serving path.
	Panics uint64 `json:"panics"`
	// DegradedAttrCost and DegradedFlat count requests served one and two
	// rungs down the degradation ladder.
	DegradedAttrCost uint64 `json:"degradedAttrCost"`
	DegradedFlat     uint64 `json:"degradedFlat"`
}

// ResilienceStats returns the serving path's degradation and panic counters.
// For an AdaptiveSystem the counters are shared across snapshots.
func (s *System) ResilienceStats() ResilienceStats {
	return ResilienceStats{
		Panics:           s.resil.panics.Load() + s.CacheStats().Panics,
		DegradedAttrCost: s.resil.degradedAttr.Load(),
		DegradedFlat:     s.resil.degradedFlat.Load(),
	}
}

// RepairStats is what remains of the stale-tree repair counters, which were
// deleted with incremental repair (DESIGN.md §13). Both fields are always 0.
//
// Deprecated: the only reader is perfbench's traced run, which derives
// category.copied_node_ratio from it. The ROADMAP item "A stage spine inside
// the server" replaces that run's in-process replay and removes this type.
type RepairStats struct {
	CopiedNodes, RebuiltNodes uint64
}

// RepairStats returns the zero RepairStats.
//
// Deprecated: read only by perfbench's traced run; removed with RepairStats.
func (s *System) RepairStats() RepairStats { return RepairStats{} }

// SelectStats is a point-in-time snapshot of the relation's selection
// counters: select count, cumulative selection time, and the conjunct-bitmap
// cache's hit/miss/extension/occupancy (DESIGN.md §9).
type SelectStats = relation.SelectStats

// SelectStats returns the base relation's selection counters. For an
// AdaptiveSystem the relation is shared across snapshots, so any snapshot
// reports the same counters.
func (s *System) SelectStats() SelectStats { return s.rel.SelectStats() }

// StorageStats is what remains of the zone-map pruning counters, which were
// deleted with zone maps and in-memory segments (DESIGN.md §14). Both
// fields are always 0.
//
// Deprecated: the only reader is perfbench's traced run, which derives
// relation.zone_pruned_ratio from it. The ROADMAP item "A stage spine inside
// the server" replaces that run's in-process replay and removes this type.
type StorageStats struct {
	ZonePruned, ZoneScanned uint64
}

// StorageStats returns the zero StorageStats.
//
// Deprecated: read only by perfbench's traced run; removed with StorageStats.
func (s *System) StorageStats() StorageStats { return StorageStats{} }

// ShardingStats is what remains of the shard-parallel build counters, which
// were deleted with shard-parallel categorization (DESIGN.md §12). Both
// fields are always 0.
//
// Deprecated: the only reader is perfbench's traced run, which derives
// category.sharded_node_ratio from it. The ROADMAP item "A stage spine inside
// the server" replaces that run's in-process replay and removes this type.
type ShardingStats struct {
	ShardedNodes, SeqNodes uint64
}

// ShardingStats returns the zero ShardingStats.
//
// Deprecated: read only by perfbench's traced run; removed with ShardingStats.
func (s *System) ShardingStats() ShardingStats { return ShardingStats{} }

// Generation returns the workload-stats generation this system serves. A
// system built by NewSystem is generation 0; AdaptiveSystem publishes
// snapshots with increasing generations.
func (s *System) Generation() uint64 { return s.gen }

// CacheEnabled reports whether this system memoizes trees.
func (s *System) CacheEnabled() bool { return s.cache.Enabled() }

// CacheStats returns the tree cache's counters (zero when caching is
// disabled). For an AdaptiveSystem the cache is shared across snapshots, so
// any snapshot reports the same counters.
func (s *System) CacheStats() CacheStats {
	if !s.cache.Enabled() {
		return CacheStats{}
	}
	return s.cache.Stats()
}

// ServeParsed executes and categorizes q through the serving path: on a
// cache hit the selection is skipped entirely (the tree's root tuple-set is
// the result set); on a miss the selection and categorization run inside the
// singleflight, so concurrent identical requests cost one computation. hit
// reports whether the tree came from the cache. The returned tree is shared
// — treat it as immutable (render, estimate, refine; do not RankTree it).
// ctx cancellation abandons the wait and, cooperatively, the computation.
// ServeParsed is ServeParsedWith under the zero policy: no server deadline,
// no degradation.
func (s *System) ServeParsed(ctx context.Context, q *Query, tech Technique, opts Options) (*Tree, bool, error) {
	out, err := s.ServeParsedWith(ctx, q, tech, opts, ServePolicy{})
	return out.Tree, out.Hit, err
}

// ServeParsedWith is ServeParsed under a resilience policy (DESIGN.md §10).
// pol.Deadline imposes a server-side wall budget: when it fires, the error
// satisfies errors.Is(err, resilience.ErrServerTimeout), distinguishing the
// server's deadline from the client abandoning the request. With pol.Degrade
// set, a cost-based build that blows pol.SoftBudget degrades stepwise — the
// Attr-Cost baseline, then the flat SHOWTUPLES tree — rather than erroring;
// the rung comes back in the outcome's Degraded field. Degraded trees are
// delivered to the singleflight waiters that co-requested them but are never
// cached as if they were the full tree. Panics anywhere in the categorizer
// are converted to errors at a recover() boundary; the process survives.
func (s *System) ServeParsedWith(ctx context.Context, q *Query, tech Technique, opts Options, pol ServePolicy) (ServeOutcome, error) {
	var out ServeOutcome
	if q == nil {
		return out, fmt.Errorf("repro: ServeParsed requires a query")
	}
	pol = pol.Effective()
	if pol.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, pol.Deadline, resilience.ErrServerTimeout)
		defer cancel()
	}
	if !s.cache.Enabled() {
		if err := ctx.Err(); err != nil {
			return out, mapDeadlineErr(ctx, err)
		}
		tree, deg, err := s.buildLadder(ctx, q, s.rel.Select(q.Predicate()), tech, opts, pol)
		if err != nil {
			return out, mapDeadlineErr(ctx, err)
		}
		return ServeOutcome{Tree: tree, Degraded: deg}, nil
	}
	key := s.cacheKey(q, tech, opts)
	v, hit, err := s.cache.DoStale(ctx, key, s.cacheBaseKey(q, tech, opts),
		func(cctx context.Context, stale served, haveStale bool) (served, int64, error) {
			rows := s.staleRows(q, stale, haveStale)
			tree, deg, err := s.buildLadder(cctx, q, rows, tech, opts, pol)
			if err != nil {
				return served{}, 0, err
			}
			if deg != DegradeNone {
				// A degraded tree is an overload artifact, not the query's true
				// categorization: hand it to the waiters, store nothing.
				return served{tree: tree, deg: deg}, -1, nil
			}
			v, size := s.entry(key, tree)
			return v, size, nil
		})
	if err != nil {
		return out, mapDeadlineErr(ctx, err)
	}
	out = ServeOutcome{Tree: v.tree, Hit: hit, Degraded: v.deg}
	if hit {
		out.Memo = v.memo
	}
	return out, nil
}

// staleRows returns the result rows for a cache-miss build. A stale entry's
// root tuple-set IS the query's result: the base key includes the relation's
// data generation, so the stale tree was selected from exactly these rows
// and the miss can skip the selection (DESIGN.md §13). A stale miss is
// otherwise an ordinary cold build under the current statistics.
func (s *System) staleRows(q *Query, stale served, haveStale bool) []int {
	if haveStale && stale.tree != nil {
		return stale.tree.Root.Tset
	}
	return s.rel.Select(q.Predicate())
}

// Peek returns the memoized full-fidelity tree for q if one is stored,
// computing nothing. This is the admission-control bypass: a cache hit costs
// no categorization, so the server needn't spend a concurrency slot on it.
func (s *System) Peek(q *Query, tech Technique, opts Options) (*Tree, bool) {
	out := s.PeekOutcome(q, tech, opts)
	return out.Tree, out.Hit
}

// PeekOutcome is Peek reporting a stored tree as a hit outcome that carries
// the entry's render memo; on a miss it returns the zero outcome.
func (s *System) PeekOutcome(q *Query, tech Technique, opts Options) ServeOutcome {
	if q == nil || !s.cache.Enabled() {
		return ServeOutcome{}
	}
	v, ok := s.cache.Get(s.cacheKey(q, tech, opts))
	if !ok {
		return ServeOutcome{}
	}
	return ServeOutcome{Tree: v.tree, Hit: true, Memo: v.memo}
}

// mapDeadlineErr tags a context error caused by the server-imposed deadline
// with resilience.ErrServerTimeout, so callers (and the HTTP layer's 504 vs
// 499 mapping) need not reach back into the context for the cause.
func mapDeadlineErr(ctx context.Context, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if errors.Is(context.Cause(ctx), resilience.ErrServerTimeout) && !errors.Is(err, resilience.ErrServerTimeout) {
			return fmt.Errorf("%w: %w", resilience.ErrServerTimeout, err)
		}
	}
	return err
}

// buildLadder is the deadline-budgeted build behind the serving path. Without
// degradation it is one protected build. With it, each rung gets a soft wall
// budget (full technique, then — for cost-based requests — the Attr-Cost
// baseline at half the budget); a rung that blows its budget while the
// request is still alive falls through to the next, and the final rung is
// the flat SHOWTUPLES tree, which always succeeds immediately. Real errors
// (hard deadline, client cancellation, panics, bad input) abort the ladder.
func (s *System) buildLadder(ctx context.Context, q *Query, rows []int, tech Technique, opts Options, pol ServePolicy) (*Tree, Degradation, error) {
	if err := faultinject.Inject(ctx, faultinject.SiteServeBuild); err != nil {
		return nil, DegradeNone, err
	}
	if !pol.Degrade || pol.SoftBudget <= 0 {
		tree, err := s.protectedBuild(ctx, q, rows, tech, opts)
		return tree, DegradeNone, err
	}
	type rung struct {
		tech   Technique
		budget time.Duration
		deg    Degradation
	}
	rungs := []rung{{tech, pol.SoftBudget, DegradeNone}}
	if tech == CostBased {
		rungs = append(rungs, rung{AttrCost, pol.SoftBudget / 2, DegradeAttrCost})
	}
	for _, r := range rungs {
		sctx, cancel := context.WithTimeoutCause(ctx, r.budget, errSoftBudget)
		tree, err := s.protectedBuild(sctx, q, rows, r.tech, opts)
		cancel()
		if err == nil {
			if r.deg == DegradeAttrCost {
				s.resil.degradedAttr.Add(1)
			}
			return tree, r.deg, nil
		}
		soft := errors.Is(context.Cause(sctx), errSoftBudget)
		if !soft && errors.Is(err, context.DeadlineExceeded) {
			// The build observed the rung's deadline on the wall clock before
			// the runtime timer delivered it (a saturated scheduler starves
			// timers; the cancel above then recorded Canceled as the cause).
			// It was the rung's own budget only if it was tighter than any
			// deadline the request already carried.
			if d, ok := sctx.Deadline(); ok {
				if rd, rok := ctx.Deadline(); !rok || d.Before(rd) {
					soft = true
				}
			}
		}
		if ctx.Err() != nil || !soft {
			// The request itself died (hard deadline, all waiters gone) or the
			// build failed for a non-budget reason: degrading won't help.
			return nil, DegradeNone, err
		}
	}
	s.resil.degradedFlat.Add(1)
	return category.FlatTree(s.rel, rows, opts), DegradeFlat, nil
}

// protectedBuild is buildTree behind the resilience.Protect boundary: a
// panic anywhere in the categorizer becomes a *resilience.PanicError instead
// of tearing down the process (the cached path has the same boundary inside
// the singleflight, so panics are isolated with or without the cache).
func (s *System) protectedBuild(ctx context.Context, q *Query, rows []int, tech Technique, opts Options) (*Tree, error) {
	return resilience.Protect(
		func(*resilience.PanicError) { s.resil.panics.Add(1) },
		func() (*Tree, error) { return s.buildTree(ctx, q, rows, tech, opts) },
	)
}

// Serve is ServeParsed over a SQL string, additionally returning the result
// size (the tree root's tuple count — no separate selection runs on a hit).
func (s *System) Serve(ctx context.Context, sql string, tech Technique, opts Options) (*Tree, int, bool, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, 0, false, err
	}
	tree, hit, err := s.ServeParsed(ctx, q, tech, opts)
	if err != nil {
		return nil, 0, false, err
	}
	return tree, tree.Root.Size(), hit, nil
}

// buildTree runs one categorization with the chosen technique — the single
// construction point behind Result.CategorizeWith and the serving path.
func (s *System) buildTree(ctx context.Context, q *Query, rows []int, tech Technique, opts Options) (*Tree, error) {
	switch tech {
	case CostBased:
		c := category.NewCategorizer(s.stats, opts)
		c.Corr = s.corr
		c.Ctx = ctx
		return c.CategorizeRows(s.rel, q, rows)
		// Cost-based trees carry their (possibly path-conditional)
		// probabilities from construction; no re-annotation.
	case AttrCost, NoCost:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faultinject.Inject(ctx, faultinject.SiteBaseline); err != nil {
			return nil, err
		}
		b := &category.Baseline{Stats: s.stats, Opts: opts, Kind: tech}
		tree, err := b.CategorizeRows(s.rel, q, rows)
		if err != nil {
			return nil, err
		}
		est := &category.Estimator{Stats: s.stats}
		if s.corr != nil {
			est.AnnotateConditional(tree, s.corr, opts.MinCondSupport)
		} else {
			est.Annotate(tree)
		}
		return tree, nil
	default:
		return nil, fmt.Errorf("repro: unknown technique %v", tech)
	}
}

// cacheKey composes the serving-path cache key. The query contributes its
// canonical signature (spelling-independent); the technique and the full
// option set contribute a fingerprint (conservative: options that default to
// the same effective value key separately); the stats generation makes every
// statistics snapshot its own key space, and the relation's data generation
// keeps trees built before an Append from being served after it. The float
// options are spelled through relation.SigNum like every other cache-key
// layer, so K=-0 and K=0 — or any pair of spellings FormatFloat would split —
// cannot fork (or collide) key spaces.
func (s *System) cacheKey(q *Query, tech Technique, opts Options) string {
	return fmt.Sprintf("%s\x1e%d", s.cacheBaseKey(q, tech, opts), s.gen)
}

// cacheBaseKey is the generation-free prefix of cacheKey: everything that
// identifies the logical entry (signature, technique, options, data
// generation) except the stats generation. Two cache keys sharing a base key
// are the same query, over the same rows, under different statistics
// snapshots — so a superseded entry's root tuple-set is the new build's
// result set, and the cache indexes stale lookups by this prefix. The data
// generation stays in the base: a tree built before an Append categorizes
// different rows.
func (s *System) cacheBaseKey(q *Query, tech Technique, opts Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%s|%d|%d|%s|%t|%t|%d|%d|%t|%d|%d|%s",
		tech, opts.M, relation.SigNum(opts.K), relation.SigNum(opts.X),
		opts.MaxBuckets, opts.MinBucket, relation.SigNum(opts.Frac),
		opts.AutoBuckets, opts.EquiDepth, opts.MaxZeroCandidates, opts.MaxLevels,
		opts.CandidateAttrs != nil, opts.MaxCategories, opts.MinCondSupport,
		strings.Join(opts.CandidateAttrs, "\x1f"))
	return fmt.Sprintf("%s\x1e%x\x1e%d", q.Signature(), h.Sum64(), s.rel.DataGeneration())
}

// treeBytes approximates a tree's resident size for the cache's byte bound:
// per-node struct overhead plus the tuple-set and label payloads.
func treeBytes(t *Tree) int64 {
	const nodeOverhead = 160 // Node struct, Children slice header, pointers
	size := int64(96)        // Tree struct + LevelAttrs
	for _, a := range t.LevelAttrs {
		size += int64(len(a))
	}
	t.Root.Walk(func(n *Node, _ int) bool {
		size += nodeOverhead + int64(len(n.Tset))*8 + int64(len(n.Label.Attr)+len(n.Label.Value))
		for _, v := range n.Label.Values {
			size += int64(len(v)) + 16
		}
		return true
	})
	return size
}
