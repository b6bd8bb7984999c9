package category

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/relation"
	"repro/internal/resilience/faultinject"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// Options tunes the categorizer. The zero value is usable: Defaults are
// applied per field (paper values where the paper gives them).
type Options struct {
	// M is the maximum tuples per category before it must be subcategorized
	// (§5.2). Default 20, the paper's user-study setting.
	M int
	// K is the cost of examining one category label relative to one data
	// tuple (§4.1). Default 1.
	K float64
	// X is the attribute-elimination threshold of §5.1.1: attributes used by
	// fewer than X·N workload queries are discarded. Default 0.4, the
	// paper's home-search setting.
	X float64
	// MaxBuckets is m, the number of buckets a numeric partitioning may
	// produce (§5.1.3). Default 8.
	MaxBuckets int
	// MinBucket is the "too few tuples" bound making a splitpoint
	// unnecessary. Default max(1, M/4).
	MinBucket int
	// Frac is frac(C) for the ONE-scenario cost model: the expected fraction
	// of a tuple list scanned before the first relevant tuple. Default 0.5.
	Frac float64
	// AutoBuckets lets splitpoint goodness determine m: every candidate
	// scoring above 5% of the best is eligible (§5.1.3's closing remark).
	AutoBuckets bool
	// CandidateAttrs overrides workload-based attribute elimination with an
	// explicit candidate set (used by the baseline techniques, which draw
	// from a predefined set).
	CandidateAttrs []string
	// MaxZeroCandidates caps how many zero-goodness grid points are admitted
	// as fallback splitpoints per level. Default 64.
	MaxZeroCandidates int
	// MaxLevels bounds tree depth; 0 means no bound beyond the 1:1
	// level-attribute rule.
	MaxLevels int
	// EquiDepth switches the baseline techniques' naive numeric partitioner
	// from the paper's equi-width buckets to equi-depth (quantile) buckets —
	// the classic histogram boundary rule, exposed for the splitpoint
	// ablation. Ignored by the cost-based technique.
	EquiDepth bool
	// MaxCategories bounds a categorical level's fan-out: when a node would
	// get more than MaxCategories children, the least-requested values are
	// merged into one trailing multi-value "Other" category (rendered like
	// Figure 1's "Neighborhood: Redmond, Bellevue"). 0 means unbounded, the
	// paper's single-value-only behaviour (§5.1.2).
	MaxCategories int
	// MinCondSupport is the minimum number of path-compatible workload
	// queries (and of those, queries filtering on the candidate attribute)
	// required before the correlation model overrides the independent
	// estimates; below it the paper's independence assumption is used.
	// Default 8. Only meaningful when the Categorizer has a CondIndex.
	MinCondSupport int
	// Shards is the shard-parallel fan-out for per-node partition work
	// (shard.go): nodes with at least shardMinTset tuples are counted and
	// filled by this many concurrent span workers, and large numeric sorts
	// go through the chunked merge. The resulting tree is byte-identical to
	// the unsharded build at every shard count. 0 means one shard per
	// available CPU (resolved at categorization time); 1 disables sharding.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.M == 0 {
		o.M = 20
	}
	if o.K == 0 {
		o.K = 1
	}
	if o.X == 0 {
		o.X = 0.4
	}
	if o.MaxBuckets == 0 {
		o.MaxBuckets = 8
	}
	if o.MinBucket == 0 {
		o.MinBucket = o.M / 4
		if o.MinBucket < 1 {
			o.MinBucket = 1
		}
	}
	if o.Frac == 0 {
		o.Frac = 0.5
	}
	if o.MaxZeroCandidates == 0 {
		o.MaxZeroCandidates = 64
	}
	if o.MinCondSupport == 0 {
		o.MinCondSupport = 8
	}
	return o
}

// Categorizer builds min-cost category trees over query results using
// workload statistics (the paper's cost-based technique, Figure 6).
type Categorizer struct {
	Stats *workload.Stats
	Opts  Options
	// Corr, when non-nil, replaces the paper's attribute-independence
	// assumption with path-conditional probabilities computed from the
	// retained workload conditions (§5.2's proposed correlation
	// refinement). Falls back to the independent estimates wherever the
	// conditional sample is smaller than Opts.MinCondSupport.
	Corr *workload.CondIndex
	// Ctx, when non-nil, lets a serving layer abandon a categorization
	// mid-build: the level loop, the candidate fan-out, and the shard
	// workers poll it and return ctx's error instead of completing the
	// tree. Trees are never returned partially built.
	Ctx context.Context
	// Counters, when non-nil, accumulates shard-parallel telemetry across
	// builds (healthz's "sharding" block). Shared by pointer; nil is fine.
	Counters *ShardCounters
	// RecordTrace makes the build record a BuildTrace on the tree — the
	// structural record Repair consumes (DESIGN.md §13). Off by default: the
	// trace costs allocations proportional to candidates × levels, which
	// one-shot builds never amortize. The serving layer turns it on for
	// cacheable cost-based builds.
	RecordTrace bool
	// RepairBudget bounds how many old-tree nodes one Repair call may copy
	// before giving up in favor of a full rebuild; 0 means
	// DefaultRepairBudget.
	RepairBudget int
}

// NewCategorizer returns a Categorizer over the given workload statistics
// with the paper's default parameters.
func NewCategorizer(stats *workload.Stats, opts Options) *Categorizer {
	return &Categorizer{Stats: stats, Opts: opts.withDefaults()}
}

// Categorize builds the category tree for result set r of query q
// level-by-level (Figure 6): at each level it evaluates every retained,
// unused attribute's best partitioning of the oversized categories and
// commits the one minimizing Σ P(C)·CostAll(Tree(C,A)). q may be nil for
// browsing applications (the whole relation is the result set); it supplies
// the value domains when present.
func (c *Categorizer) Categorize(r *relation.Relation, q *sqlparse.Query) (*Tree, error) {
	return c.categorize(r, q, r.Select(nil))
}

// CategorizeRows is Categorize over an explicit tuple-set (row indices into
// r), for callers that have already executed the selection.
func (c *Categorizer) CategorizeRows(r *relation.Relation, q *sqlparse.Query, rows []int) (*Tree, error) {
	return c.categorize(r, q, rows)
}

func (c *Categorizer) categorize(r *relation.Relation, q *sqlparse.Query, rows []int) (*Tree, error) {
	if c.Stats == nil {
		return nil, fmt.Errorf("category: categorizer has no workload statistics")
	}
	opts := c.Opts.withDefaults()
	est := &Estimator{Stats: c.Stats}
	ctx := c.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := faultinject.Inject(ctx, faultinject.SiteCategorizeStart); err != nil {
		return nil, fmt.Errorf("category: categorization abandoned: %w", err)
	}
	lc := &levelContext{
		r: r, q: q, stats: c.Stats, est: est, opts: opts, corr: c.Corr, ctx: ctx,
		shards: EffectiveShards(opts.Shards), counters: c.Counters,
	}

	candidates := opts.CandidateAttrs
	if candidates == nil {
		candidates = c.Stats.Retained(opts.X)
	}
	candidates = presentInSchema(candidates, r)

	// The root owns a copy: callers keep their slice, and later in-place
	// reorderings of the tree (ranking) cannot reach the caller's data.
	tree := &Tree{Root: &Node{Label: Label{Kind: LabelAll}, Tset: append([]int(nil), rows...), P: 1, Pw: 1}, R: r, K: opts.K}
	if c.RecordTrace && c.Corr == nil {
		// Traces serve repair, and repair only applies under the independence
		// model: the correlation refinement's probabilities depend on the
		// retained per-query conditions, which the trace does not capture.
		tree.Trace = &BuildTrace{Candidates: append([]string(nil), candidates...)}
	}
	frontier := []*Node{tree.Root}
	if c.Corr != nil {
		lc.compat = map[*Node][]int{tree.Root: c.Corr.AllIDs()}
	}
	if err := c.runLevels(lc, tree, frontier, candidates, 1); err != nil {
		return nil, err
	}
	return tree, nil
}

// runLevels executes the level-greedy loop (Figure 6) from startLevel,
// mutating tree in place: per level it evaluates every remaining candidate's
// best partitioning of the oversized frontier and commits the argmin. It is
// the shared tail of categorize and of Repair's divergence path (the repair
// pass copies stable levels, then hands the remaining levels to the exact
// loop a rebuild would run).
func (c *Categorizer) runLevels(lc *levelContext, tree *Tree, frontier []*Node, candidates []string, startLevel int) error {
	opts := lc.opts
	ctx := lc.ctx
	for level := startLevel; ; level++ {
		if opts.MaxLevels > 0 && level > opts.MaxLevels {
			break
		}
		if err := faultinject.Inject(ctx, faultinject.SiteCategorizeLevel); err != nil {
			return fmt.Errorf("category: categorization abandoned: %w", err)
		}
		s := oversized(frontier, opts.M)
		if len(s) == 0 || len(candidates) == 0 {
			break
		}
		lc.resetLevel()
		best, all := bestPlanAll(candidates, s, lc, lc.planFor, tree.Trace != nil)
		if err := ctxExpired(ctx); err != nil {
			// A cancellation mid-fan-out may have skipped candidates; the
			// surviving plan would be valid but not necessarily the best, so
			// the whole build is abandoned rather than committed.
			return fmt.Errorf("category: categorization abandoned: %w", err)
		}
		if tree.Trace != nil {
			lt := LevelTrace{
				Candidates: append([]string(nil), candidates...),
				Sketches:   make([]*planSketch, len(candidates)),
			}
			for i, pl := range all {
				if pl != nil {
					lt.Sketches[i] = sketchPlan(pl, s)
				}
			}
			if best != nil {
				lt.Chosen = best.attr
			}
			tree.Trace.Levels = append(tree.Trace.Levels, lt)
		}
		if best == nil {
			break // no attribute partitions anything at this level
		}
		frontier = lc.attach(best, s)
		tree.LevelAttrs = append(tree.LevelAttrs, best.attr)
		candidates = removeAttr(candidates, best.attr)
	}
	return nil
}

// bestPlan evaluates every candidate attribute's partitioning of S with
// build and returns the plan minimizing the Figure 6 objective, or nil if
// none partitions anything. All candidates are costed and ties break on
// candidate-list position. Intra-node parallelism comes from Options.Shards
// (shard.go), not from evaluating candidates concurrently.
func bestPlan(candidates []string, s []*Node, lc *levelContext, build func(string, []*Node) *plan) *plan {
	best, _ := bestPlanAll(candidates, s, lc, build, false)
	return best
}

// bestPlanAll is bestPlan optionally exposing every candidate's plan (parallel
// to candidates; nil where the candidate produced none) so a tracing build can
// sketch the losing plans before they are discarded.
func bestPlanAll(candidates []string, s []*Node, lc *levelContext, build func(string, []*Node) *plan, wantAll bool) (*plan, []*plan) {
	type scored struct {
		pl   *plan
		cost float64
	}
	results := make([]scored, len(candidates))
	for i, attr := range candidates {
		if ctxExpired(lc.ctx) != nil {
			break // abandoned build; categorize discards the level
		}
		if pl := build(attr, s); pl != nil {
			results[i] = scored{pl, lc.planCost(pl, s)}
		}
	}
	var best *plan
	bestCost := 0.0
	for _, r := range results {
		if r.pl == nil {
			continue
		}
		if best == nil || r.cost < bestCost {
			best, bestCost = r.pl, r.cost
		}
	}
	if !wantAll {
		return best, nil
	}
	all := make([]*plan, len(candidates))
	for i := range results {
		all[i] = results[i].pl
	}
	return best, all
}

// ctxExpired is ctx.Err() plus a wall-clock check of the deadline. A
// deadline's runtime timer needs a free P to be delivered; with a CPU-bound
// build saturating the scheduler (GOMAXPROCS=1 in the limit) delivery can lag
// by the length of the build itself, which would let a soft-budgeted build
// run arbitrarily past its deadline. Reading the clock needs no timer.
func ctxExpired(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// oversized filters the frontier to the categories that must be partitioned:
// |tset(C)| > M (§5.2).
func oversized(frontier []*Node, m int) []*Node {
	s := make([]*Node, 0, len(frontier))
	for _, n := range frontier {
		if n.Size() > m {
			s = append(s, n)
		}
	}
	return s
}

// presentInSchema keeps the candidate attributes that exist in r's schema.
func presentInSchema(attrs []string, r *relation.Relation) []string {
	var out []string
	for _, a := range attrs {
		if _, ok := r.Schema().Lookup(a); ok {
			out = append(out, a)
		}
	}
	return out
}

// removeAttr returns attrs without attr (case-insensitively). It always
// allocates a fresh slice: attrs may be the caller's Options.CandidateAttrs,
// whose backing array must survive the level loop untouched.
func removeAttr(attrs []string, attr string) []string {
	out := make([]string, 0, len(attrs))
	for _, a := range attrs {
		if !strings.EqualFold(a, attr) {
			out = append(out, a)
		}
	}
	return out
}
