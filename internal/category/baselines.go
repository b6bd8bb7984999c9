package category

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/relation"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// Technique names the categorization techniques compared in §6.
type Technique int

const (
	// CostBased is the paper's technique: cost-based attribute selection and
	// cost-based partitioning (Figure 6).
	CostBased Technique = iota
	// AttrCost selects the categorizing attribute by cost but partitions
	// naively (arbitrary categorical order, equi-width numeric buckets).
	AttrCost
	// NoCost selects attributes in a predefined arbitrary order and
	// partitions naively.
	NoCost
)

// String returns the technique's paper name.
func (t Technique) String() string {
	switch t {
	case CostBased:
		return "Cost-based"
	case AttrCost:
		return "Attr-cost"
	case NoCost:
		return "No cost"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// Baseline builds category trees with the comparison techniques of §6.1.
// Both baselines use the same level-by-level loop as the cost-based
// algorithm but replace one or both cost-guided choices with naive ones.
type Baseline struct {
	Stats *workload.Stats
	Opts  Options
	// Kind selects AttrCost or NoCost; CostBased is rejected (use
	// Categorizer).
	Kind Technique
}

// Categorize builds the baseline tree for result set r of query q. The
// candidate attribute set comes from Opts.CandidateAttrs (the "predefined
// set" of §6.1) or, when empty, from the workload's retained attributes.
func (b *Baseline) Categorize(r *relation.Relation, q *sqlparse.Query) (*Tree, error) {
	return b.CategorizeRows(r, q, r.Select(nil))
}

// CategorizeRows is Categorize over an explicit tuple-set.
func (b *Baseline) CategorizeRows(r *relation.Relation, q *sqlparse.Query, rows []int) (*Tree, error) {
	if b.Kind != AttrCost && b.Kind != NoCost {
		return nil, fmt.Errorf("category: baseline kind must be AttrCost or NoCost, got %v", b.Kind)
	}
	if b.Stats == nil {
		return nil, fmt.Errorf("category: baseline has no workload statistics")
	}
	opts := b.Opts.withDefaults()
	est := &Estimator{Stats: b.Stats}
	lc := &levelContext{r: r, q: q, stats: b.Stats, est: est, opts: opts}

	candidates := opts.CandidateAttrs
	if candidates == nil {
		candidates = b.Stats.Retained(opts.X)
	}
	candidates = presentInSchema(candidates, r)

	tree := &Tree{Root: &Node{Label: Label{Kind: LabelAll}, Tset: append([]int(nil), rows...), P: 1, Pw: 1}, R: r, K: opts.K}
	frontier := []*Node{tree.Root}

	for level := 1; ; level++ {
		if opts.MaxLevels > 0 && level > opts.MaxLevels {
			break
		}
		s := oversized(frontier, opts.M)
		if len(s) == 0 || len(candidates) == 0 {
			break
		}
		lc.resetLevel()
		var best *plan
		if b.Kind == NoCost {
			// Arbitrary choice without replacement (§6.1): a deterministic
			// pseudo-random pick among the remaining predefined candidates,
			// blind to cost — seeded by the level and result size so repeated
			// runs reproduce, mirroring a technique that ignores the workload.
			h := arbitraryHash(level, len(rows), len(candidates))
			for off := 0; off < len(candidates) && best == nil; off++ {
				attr := candidates[(h+off)%len(candidates)]
				best = lc.naivePlanFor(attr, s)
			}
		} else {
			best = bestPlan(candidates, s, lc, lc.naivePlanFor)
		}
		if best == nil {
			break
		}
		frontier = lc.attach(best, s)
		tree.LevelAttrs = append(tree.LevelAttrs, best.attr)
		candidates = removeAttr(candidates, best.attr)
	}
	return tree, nil
}

// arbitraryHash mixes the level and result-set size into a stable index for
// the No-cost technique's blind attribute pick.
func arbitraryHash(level, resultLen, n int) int {
	h := uint32(2166136261)
	for _, v := range []int{level, resultLen, n} {
		h ^= uint32(v)
		h *= 16777619
	}
	return int(h % uint32(n))
}

// naivePlanFor builds the §6.1 baseline partitioning for one attribute:
// single-value categories in arbitrary (lexicographic) order, or equi-width
// numeric buckets of 5× the splitpoint separation interval; empty categories
// are removed.
func (lc *levelContext) naivePlanFor(attr string, s []*Node) *plan {
	typ, ok := lc.r.Schema().TypeOf(attr)
	if !ok {
		return nil
	}
	var pl *plan
	if typ == relation.Categorical {
		pl = lc.naiveCategoricalPlan(attr, s)
	} else {
		pl = lc.naiveNumericPlan(attr, s)
	}
	if pl == nil || !pl.partitions() {
		return nil
	}
	return pl
}

func (lc *levelContext) naiveCategoricalPlan(attr string, s []*Node) *plan {
	values := lc.domainValues(attr, s)
	if len(values) == 0 {
		return nil
	}
	sort.Strings(values) // arbitrary order: lexicographic, ignoring occ(v)
	return lc.codePartition(attr, values, s)
}

func (lc *levelContext) naiveNumericPlan(attr string, s []*Node) *plan {
	vmin, vmax, ok := lc.domainRange(attr, s)
	if !ok || vmin >= vmax {
		return nil
	}
	// Equi-width boundaries at every multiple of width strictly inside
	// (vmin, vmax) — computed once for the level (§6.1).
	var globalCuts []float64
	if !lc.opts.EquiDepth {
		width := lc.equiWidth(attr, vmin, vmax)
		first := math.Floor(vmin/width)*width + width
		for v := first; v < vmax; v += width {
			if v > vmin {
				globalCuts = append(globalCuts, v)
			}
		}
	}
	nAttr := lc.stats.NAttr(attr)
	pos, _ := lc.r.Schema().Lookup(attr)
	col, err := lc.r.NumColumn(attr)
	if err != nil {
		return nil
	}
	pl := &plan{attr: attr, children: make([][]childSpec, len(s))}
	for si, n := range s {
		sp := lc.sortedProjection(n, pos, col)
		idx := make([]int, len(sp.idx)) // buildBuckets takes ownership
		copy(idx, sp.idx)
		cuts := globalCuts
		if lc.opts.EquiDepth {
			cuts = equiDepthCuts(sp.vals, lc.opts.MaxBuckets)
		}
		pl.children[si] = lc.buildBuckets(attr, vmin, vmax, cuts, sp.vals, idx, nAttr)
	}
	return pl
}

// equiDepthCuts places cuts at the quantiles of the node's sorted values —
// the classic equi-depth histogram boundary rule (§2's histogram
// comparison): every bucket holds roughly the same number of tuples,
// regardless of what past users asked for.
func equiDepthCuts(vals []float64, buckets int) []float64 {
	if buckets < 2 || len(vals) < 2 {
		return nil
	}
	var cuts []float64
	per := float64(len(vals)) / float64(buckets)
	for b := 1; b < buckets; b++ {
		i := int(per * float64(b))
		if i <= 0 || i >= len(vals) {
			continue
		}
		cut := vals[i]
		if len(cuts) > 0 && cuts[len(cuts)-1] >= cut {
			continue // duplicate value runs collapse a boundary
		}
		if cut <= vals[0] {
			continue
		}
		cuts = append(cuts, cut)
	}
	return cuts
}

// equiWidth returns the §6.1 bucket width: 5× the attribute's splitpoint
// separation interval (e.g. price splits at every multiple of 25000), with a
// span-derived fallback when the workload never ranges over the attribute.
func (lc *levelContext) equiWidth(attr string, vmin, vmax float64) float64 {
	if st := lc.stats.Splits(attr); st != nil && st.Interval > 0 {
		return 5 * st.Interval
	}
	return (vmax - vmin) / 5
}
