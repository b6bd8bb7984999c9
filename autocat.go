// Package repro is an implementation of "Automatic Categorization of Query
// Results" (Chakrabarti, Chaudhuri, Hwang — SIGMOD 2004): it dynamically
// builds a labeled, hierarchical category tree over the result set of a SQL
// query, choosing categorizing attributes and partitionings that minimize an
// analytical estimate of the information overload a user faces while
// exploring the results. The estimate is driven by a workload of past
// queries — no domain expert input, no a-priori taxonomy.
//
// # Quick start
//
//	rel := repro.DemoDataset(20000, 1)                  // or build your own Relation
//	sys, err := repro.NewSystem(rel, repro.Config{
//		WorkloadSQL: repro.DemoWorkloadSQL(10000, 2),
//	})
//	res, err := sys.Query("SELECT * FROM ListProperty WHERE " +
//		"neighborhood IN ('Seattle, WA','Bellevue, WA') AND price BETWEEN 200000 AND 300000")
//	tree, err := res.Categorize()
//	fmt.Print(repro.RenderTree(tree, repro.RenderOptions{MaxDepth: 2}))
//
// The facade re-exports (as aliases) the types of the internal packages so
// callers never import repro/internal/... directly.
package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/category"
	"repro/internal/datagen"
	"repro/internal/explore"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/render"
	"repro/internal/session"
	"repro/internal/sqlparse"
	"repro/internal/treecache"
	"repro/internal/workload"
)

// Re-exported core types. Aliases keep the public surface in one import path
// while the implementation stays in focused internal packages.
type (
	// Relation is an in-memory typed table; the result sets being
	// categorized and the base data both use it.
	Relation = relation.Relation
	// Schema describes a Relation's attributes.
	Schema = relation.Schema
	// Attribute is one column: a name and a Type.
	Attribute = relation.Attribute
	// Tuple is one row of a Relation.
	Tuple = relation.Tuple
	// Type distinguishes Categorical from Numeric attributes.
	Type = relation.Type
	// Query is a parsed SPJ selection query.
	Query = sqlparse.Query
	// Condition is one per-attribute selection condition of a Query.
	Condition = sqlparse.Condition
	// Workload is an ordered log of past queries.
	Workload = workload.Workload
	// WorkloadStats holds the preprocessed count tables (§4.2, §5.1).
	WorkloadStats = workload.Stats
	// Tree is a hierarchical categorization of a result set.
	Tree = category.Tree
	// Node is one category of a Tree.
	Node = category.Node
	// Label is a category's describing predicate.
	Label = category.Label
	// Options tunes the categorizer (M, K, x, bucket limits…).
	Options = category.Options
	// Technique selects among the paper's categorization techniques.
	Technique = category.Technique
	// Intent is a simulated user's information need plus noise.
	Intent = explore.Intent
	// Outcome reports what a simulated exploration examined and found.
	Outcome = explore.Outcome
	// RenderOptions controls text rendering of trees.
	RenderOptions = render.TreeOptions
	// DOTOptions controls Graphviz rendering of trees.
	DOTOptions = render.DOTOptions
	// Ranker scores tuples by workload popularity (the complementary
	// ranking technique of §2).
	Ranker = ranking.Ranker
	// ExploreSession is a stateful treeview exploration recording the §6.3
	// operation log with running item accounting.
	ExploreSession = session.Session
	// SessionSummary is the running measurement of an ExploreSession.
	SessionSummary = session.Summary
)

// Attribute type constants.
const (
	Categorical = relation.Categorical
	Numeric     = relation.Numeric
)

// Categorization techniques (§6.1).
const (
	CostBased = category.CostBased
	AttrCost  = category.AttrCost
	NoCost    = category.NoCost
)

// Label kinds.
const (
	LabelAll      = category.LabelAll
	LabelValue    = category.LabelValue
	LabelValueSet = category.LabelValueSet
	LabelRange    = category.LabelRange
)

// NewSchema builds a schema; attribute names must be unique
// (case-insensitive).
func NewSchema(attrs ...Attribute) (*Schema, error) { return relation.NewSchema(attrs...) }

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema *Schema) *Relation { return relation.New(name, schema) }

// ParseQuery parses one SQL SELECT in the supported SPJ dialect.
func ParseQuery(sql string) (*Query, error) { return sqlparse.Parse(sql) }

// Config configures a System.
type Config struct {
	// WorkloadSQL is the log of past query strings to mine. Exactly one of
	// WorkloadSQL, WorkloadReader, or Stats must be provided.
	WorkloadSQL []string
	// WorkloadReader streams a query log, one statement per line; malformed
	// lines are skipped.
	WorkloadReader io.Reader
	// Stats supplies already-preprocessed count tables (e.g. loaded via
	// LoadStats), skipping workload mining.
	Stats *WorkloadStats
	// Intervals sets the splitpoint separation interval per numeric
	// attribute (Figure 5); defaults to datagen.Intervals() when the
	// relation is the demo dataset shape, else 1.
	Intervals map[string]float64
	// DefaultInterval is used for numeric attributes missing from Intervals.
	DefaultInterval float64
	// Options are the default categorizer parameters for this system's
	// queries; zero fields take the paper's defaults (M=20, K=1, x=0.4).
	Options Options
	// Correlations enables the path-conditional probability model (§5.2's
	// correlation refinement): exploration probabilities are estimated
	// conditioned on the category's whole root path instead of assuming
	// attribute independence. Requires WorkloadSQL or WorkloadReader (the
	// per-query conditions must be retained; precomputed Stats are not
	// enough).
	Correlations bool
	// Shards is ignored: every categorization partitions its nodes with one
	// sequential counting pass (DESIGN.md §12).
	//
	// Deprecated: the only writer is perfbench's reference server, which
	// sets it to 1. The ROADMAP item "A stage spine inside the server"
	// rewrites that server and removes this field.
	Shards int
	// TreeCacheEntries / TreeCacheBytes bound the serving path's memoized
	// tree cache (DESIGN.md §8): semantically identical queries (canonical
	// signature) with the same technique, options, and stats generation are
	// served the same *Tree, and concurrent identical misses collapse into
	// one categorization. TreeCacheBytes counts each entry's tree and its
	// memoized response body (RenderMemo) together. Both zero
	// disables caching. A zero bound on one dimension leaves that dimension
	// unbounded.
	TreeCacheEntries int
	TreeCacheBytes   int64
	// Durable is the crash-consistent segment store backing rel, when the
	// relation was opened from (or is being spilled to) disk (DESIGN.md §15).
	// The system does not manage its lifecycle — the caller Closes it — but
	// reports its recovery/quarantine state through DurabilityStats and
	// StorageDegraded, and the HTTP server surfaces both.
	Durable *DurableStore
}

// System ties a relation to preprocessed workload statistics and answers
// queries with categorized results. It is read-only after construction and
// safe for concurrent use.
type System struct {
	rel   *Relation
	stats *WorkloadStats
	opts  Options
	corr  *workload.CondIndex
	// wcfg is the preprocessing configuration, retained when the system was
	// built from a raw workload so learning and Personalize can fold more
	// queries in; nil for Stats-only systems.
	wcfg *workload.Config
	// cache memoizes served trees (nil when disabled); gen stamps the
	// statistics snapshot this System serves, keying the cache (§8). An
	// AdaptiveSystem's snapshots share one cache at increasing generations.
	cache *treecache.Cache[served]
	gen   uint64
	// resil counts degradations and recovered panics on the serving path
	// (§10); shared across an AdaptiveSystem's snapshots, like the cache.
	resil *resilienceCounters
	// dur is the durable segment store backing rel (nil for in-memory
	// systems); shared across an AdaptiveSystem's snapshots like the
	// relation itself (§15).
	dur *DurableStore
}

// NewSystem builds a System over rel, mining the configured workload into
// count tables (the paper's offline preprocessing phase).
func NewSystem(rel *Relation, cfg Config) (*System, error) {
	if rel == nil {
		return nil, fmt.Errorf("repro: nil relation")
	}
	var cache *treecache.Cache[served]
	if cfg.TreeCacheEntries > 0 || cfg.TreeCacheBytes > 0 {
		cache = treecache.New[served](treecache.Config{
			MaxEntries: cfg.TreeCacheEntries,
			MaxBytes:   cfg.TreeCacheBytes,
		})
	}
	resil := &resilienceCounters{}
	stats := cfg.Stats
	var corr *workload.CondIndex
	if stats == nil {
		var w *Workload
		switch {
		case cfg.WorkloadSQL != nil:
			var err error
			w, err = workload.ParseStrings(cfg.WorkloadSQL)
			if err != nil {
				return nil, fmt.Errorf("repro: %w", err)
			}
		case cfg.WorkloadReader != nil:
			var err error
			w, _, err = workload.ParseLog(cfg.WorkloadReader)
			if err != nil {
				return nil, fmt.Errorf("repro: %w", err)
			}
		default:
			return nil, fmt.Errorf("repro: config must supply WorkloadSQL, WorkloadReader, or Stats")
		}
		wcfg := workload.Config{
			Table:           rel.Name,
			Intervals:       cfg.Intervals,
			DefaultInterval: cfg.DefaultInterval,
		}
		stats = workload.Preprocess(w, wcfg)
		if cfg.Correlations {
			corr = workload.NewCondIndex(w, wcfg)
		}
		return &System{rel: rel, stats: stats, opts: cfg.Options, corr: corr, wcfg: &wcfg, cache: cache, resil: resil, dur: cfg.Durable}, nil
	}
	if cfg.Correlations {
		return nil, fmt.Errorf("repro: Correlations requires the raw workload (WorkloadSQL or WorkloadReader), not precomputed Stats")
	}
	return &System{rel: rel, stats: stats, opts: cfg.Options, cache: cache, resil: resil, dur: cfg.Durable}, nil
}

// Personalize returns a new System whose workload statistics also count one
// user's own history, repeated weight times (weight < 1 counts it once) —
// the personalization direction the paper's footnote 4 sketches: the tree is
// still built for "the average user", but the average is pulled toward this
// user's demonstrated interests. The new statistics are a copy-on-write
// clone of this system's, so the base system is unchanged and shares every
// table the history does not touch. It errors when the system was built
// from precomputed Stats (folding queries in needs the preprocessing
// configuration) or when the history fails to parse.
func (s *System) Personalize(history []string, weight int) (*System, error) {
	if s.wcfg == nil {
		return nil, fmt.Errorf("repro: Personalize requires a system built from a raw workload")
	}
	personal, err := workload.ParseStrings(history)
	if err != nil {
		return nil, fmt.Errorf("repro: personal history: %w", err)
	}
	out := &System{
		rel:   s.rel,
		stats: s.stats.Clone(),
		opts:  s.opts,
		wcfg:  s.wcfg,
		resil: &resilienceCounters{},
		dur:   s.dur, // same relation, same backing store
	}
	if s.corr != nil {
		out.corr = s.corr.Clone()
	}
	for i := 0; i < max(weight, 1); i++ {
		for _, q := range personal.Queries {
			out.fold(q)
		}
	}
	if s.cache.Enabled() {
		// The personalized statistics are a different key space; sharing the
		// base cache would serve the base user's trees. Same bounds, new cache.
		out.cache = treecache.New[served](s.cache.Bounds())
	}
	return out, nil
}

// fold counts q into the statistics and the correlation index, which s must
// own (fresh clones, not yet published). It reports false, folding nothing,
// for a query on another table.
func (s *System) fold(q *sqlparse.Query) bool {
	if !s.stats.AddQuery(q, *s.wcfg) {
		return false
	}
	if s.corr != nil {
		s.corr.Add(q, *s.wcfg)
	}
	return true
}

// Relation returns the system's base relation.
func (s *System) Relation() *Relation { return s.rel }

// Stats returns the preprocessed workload statistics.
func (s *System) Stats() *WorkloadStats { return s.stats }

// Query executes the SQL selection against the relation and returns the
// result set, ready for categorization.
func (s *System) Query(sql string) (*Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.QueryParsed(q), nil
}

// QueryParsed executes an already-parsed query.
func (s *System) QueryParsed(q *Query) *Result {
	return &Result{sys: s, Query: q, Rows: s.rel.Select(q.Predicate())}
}

// Browse returns the whole relation as a result set (the paper's browsing
// application: R is a base relation or materialized view).
func (s *System) Browse() *Result {
	return &Result{sys: s, Rows: s.rel.Select(nil)}
}

// Result is the tuple-set R a query produced, bound to its System.
type Result struct {
	sys *System
	// Query is the originating query; nil when browsing.
	Query *Query
	// Rows are the indices of the result tuples within the base relation.
	Rows []int
}

// Len returns |R|.
func (r *Result) Len() int { return len(r.Rows) }

// Relation returns the base relation the row indices refer to.
func (r *Result) Relation() *Relation { return r.sys.rel }

// Categorize builds the min-cost category tree (the paper's cost-based
// technique) with the system's default options.
func (r *Result) Categorize() (*Tree, error) {
	return r.CategorizeWith(CostBased, r.sys.opts)
}

// CategorizeOpts builds the cost-based tree with explicit options.
func (r *Result) CategorizeOpts(opts Options) (*Tree, error) {
	return r.CategorizeWith(CostBased, opts)
}

// CategorizeWith builds the tree with the chosen technique (§6.1's
// Cost-based, Attr-cost, or No-cost). The returned tree is annotated with
// exploration probabilities, so EstimateCostAll/EstimateCostOne work on it
// regardless of technique.
func (r *Result) CategorizeWith(tech Technique, opts Options) (*Tree, error) {
	return r.CategorizeCtx(context.Background(), tech, opts)
}

// CategorizeCtx is CategorizeWith honoring a request context: cancellation
// abandons the build and returns ctx's error (no partial trees). When the
// system caches trees and the result has a query, the build goes through the
// cache — hits return the shared memoized tree (treat it as immutable), and
// concurrent identical misses collapse into one computation.
func (r *Result) CategorizeCtx(ctx context.Context, tech Technique, opts Options) (*Tree, error) {
	if r.sys.cache.Enabled() && r.Query != nil {
		key := r.sys.cacheKey(r.Query, tech, opts)
		v, _, err := r.sys.cache.DoStale(ctx, key, r.sys.cacheBaseKey(r.Query, tech, opts),
			func(cctx context.Context, _ served, _ bool) (served, int64, error) {
				// The result already holds its rows; DoStale only files the
				// entry under its base key for later stale misses.
				tree, err := r.sys.buildTree(cctx, r.Query, r.Rows, tech, opts)
				if err != nil {
					return served{}, 0, err
				}
				v, size := r.sys.entry(key, tree)
				return v, size, nil
			})
		return v.tree, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.sys.buildTree(ctx, r.Query, r.Rows, tech, opts)
}

// Ranker builds a workload-popularity tuple ranker for this system's
// relation — the paper's complementary technique (§2): rank a flat result,
// or order the tuples within each category via RankTree.
func (s *System) Ranker() *Ranker {
	return ranking.New(s.stats, s.rel.Schema())
}

// Ranked returns the result's rows reordered by descending workload
// popularity (the ranked-list presentation).
func (r *Result) Ranked() []int {
	return r.sys.Ranker().Rank(r.sys.rel, r.Rows)
}

// RankTree reorders the tuples within every category of the tree by
// descending workload popularity; membership and structure are unchanged.
func RankTree(rk *Ranker, t *Tree) { ranking.RankTree(rk, t) }

// EstimateCostAll returns the analytical expected exploration cost of the
// ALL scenario (Eq. 1) for a tree built by this package.
func EstimateCostAll(t *Tree) float64 { return category.TreeCostAll(t) }

// EstimateCostOne returns the analytical expected cost of the ONE scenario
// (Eq. 2) with the given frac (0.5 is the uniform default).
func EstimateCostOne(t *Tree, frac float64) float64 { return category.TreeCostOne(t, frac) }

// SimulateAll replays the ALL-scenario exploration model for the intent.
func SimulateAll(t *Tree, in *Intent) Outcome { return (&explore.Explorer{K: t.K}).All(t, in) }

// SimulateOne replays the ONE-scenario exploration model for the intent.
func SimulateOne(t *Tree, in *Intent) Outcome { return (&explore.Explorer{K: t.K}).One(t, in) }

// SimulateFew replays the intermediate scenario (§3.2's "interested in
// two/few tuples"): the exploration stops once k relevant tuples are found.
func SimulateFew(t *Tree, in *Intent, k int) Outcome {
	return (&explore.Explorer{K: t.K}).Few(t, in, k)
}

// NewSession starts an interactive treeview exploration of the tree — the
// paper's §6.3 study client: Expand/Collapse/ShowTuples/MarkRelevant are
// logged and the examined-items account runs per the §3.2 models.
func NewSession(t *Tree) *ExploreSession { return session.New(t, t.K) }

// RenderTree renders the tree as indented text.
func RenderTree(t *Tree, opts RenderOptions) string { return render.TreeString(t, opts) }

// RenderDOT renders the tree as a Graphviz digraph — input to the
// visualization step the paper positions after categorization (§2).
func RenderDOT(t *Tree, opts DOTOptions) string { return render.DOTString(t, opts) }

// SaveTree persists a categorization's structure; LoadTree re-binds it to
// its relation. Useful for caching the trees of hot queries.
func SaveTree(t *Tree, w io.Writer) error { return t.Save(w) }

// LoadTree reads a tree written by SaveTree and validates it against rel.
func LoadTree(r io.Reader, rel *Relation) (*Tree, error) { return category.LoadTree(r, rel) }

// SaveStats persists preprocessed workload statistics.
func SaveStats(s *WorkloadStats, w io.Writer) error { return s.Save(w) }

// LoadStats restores statistics written by SaveStats.
func LoadStats(r io.Reader) (*WorkloadStats, error) { return workload.LoadStats(r) }

// DemoDataset generates the synthetic home-listing relation that substitutes
// for the paper's MSN House&Home table (see DESIGN.md).
func DemoDataset(rows int, seed int64) *Relation {
	return datagen.Dataset(datagen.DatasetConfig{Rows: rows, Seed: seed})
}

// DemoWorkloadSQL generates the synthetic buyer-query log that substitutes
// for the paper's 176k-query MSN workload.
func DemoWorkloadSQL(queries int, seed int64) []string {
	return datagen.WorkloadSQL(datagen.WorkloadConfig{Queries: queries, Seed: seed})
}

// DemoIntervals returns the splitpoint separation intervals matching the
// demo dataset's numeric attributes (the paper's settings).
func DemoIntervals() map[string]float64 { return datagen.Intervals() }
