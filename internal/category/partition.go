package category

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/relation"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// childSpec is a proposed subcategory: its label, tuple-set, and exploration
// probability. Plans are built per candidate attribute per level and only
// the winning attribute's plan is attached to the tree.
type childSpec struct {
	label Label
	tset  []int
	p     float64
}

// plan is the proposed partitioning of every node in S (the level's
// oversized categories) by one candidate attribute.
type plan struct {
	attr     string
	children [][]childSpec // parallel to S
	// pw holds per-node conditional SHOWTUPLES probabilities (parallel to
	// S) when the correlation model applied; entries < 0 (and a nil slice)
	// mean "use the independent estimate".
	pw []float64
}

// nodePw returns the SHOWTUPLES probability to use for node si given the
// independent fallback.
func (p *plan) nodePw(si int, independent float64) float64 {
	if si < len(p.pw) && p.pw[si] >= 0 {
		return p.pw[si]
	}
	return independent
}

// partitions reports whether the plan actually subdivides at least one node
// (a plan that leaves every node with ≤1 child is useless as a level).
func (p *plan) partitions() bool {
	for _, ch := range p.children {
		if len(ch) > 1 {
			return true
		}
	}
	return false
}

// levelContext carries the per-level inputs shared by all partitioners.
type levelContext struct {
	r     *relation.Relation
	q     *sqlparse.Query // the user query (may be nil for browsing)
	stats *workload.Stats
	est   *Estimator
	opts  Options

	// corr enables the path-conditional probability model (§5.2's
	// correlation refinement); nil keeps the paper's independence
	// assumption. compat then holds, per frontier node, the workload
	// queries compatible with the node's root path.
	corr   *workload.CondIndex
	compat map[*Node][]int

	// ctx aborts the build early when the serving layer abandons it.
	ctx context.Context

	// perms caches each frontier node's tuple-set sorted by a numeric
	// attribute, shared across the level's candidate evaluations (and across
	// the enumerator's many cut-set plans) so no candidate evaluation ever
	// re-sorts a (node, attribute) pair. Reset per level via resetLevel.
	perms map[permKey]*sortedProj

	// scratch pools counting-sort arenas for categorical plans so candidate
	// evaluations reuse buffers instead of allocating O(candidates × nodes)
	// garbage per level.
	scratch sync.Pool // holds *catScratch
}

// permKey identifies one (frontier node, numeric attribute) sort.
type permKey struct {
	n   *Node
	pos int // attribute position in the schema
}

// sortedProj is a node's tuple-set sorted by one numeric attribute: idx is
// the permutation of the node's Tset, vals the parallel ascending values.
// Both are cache-owned; callers must copy idx before handing slices of it
// to a tree.
type sortedProj struct {
	idx  []int
	vals []float64
}

// resetLevel clears the per-level caches; call whenever the frontier the
// partitioners see changes.
func (lc *levelContext) resetLevel() {
	if lc.perms == nil {
		lc.perms = make(map[permKey]*sortedProj)
	} else {
		clear(lc.perms) // reuse the buckets level over level
	}
}

// sortedProjection returns the cached value-sorted permutation of n's
// tuple-set for the numeric attribute at schema position pos (col is that
// attribute's columnar projection), computing and caching it on first use:
// each (node, attribute) pair is sorted at most once per level.
func (lc *levelContext) sortedProjection(n *Node, pos int, col []float64) *sortedProj {
	key := permKey{n, pos}
	if sp, ok := lc.perms[key]; ok {
		return sp
	}
	// The browsing-mode root categorizes the whole relation in row order;
	// its sort is identical on every request, so serve it from the
	// relation's cached full-table projection instead of re-sorting.
	if len(n.Tset) == lc.r.Len() && isIdentity(n.Tset) {
		attr := lc.r.Schema().Attr(pos).Name
		// The length check covers an Append racing the build: the cached
		// sort then spans rows the node does not hold.
		if rows, vals, err := lc.r.NumSorted(attr); err == nil && len(rows) == len(n.Tset) {
			return lc.storePerm(key, &sortedProj{idx: rows, vals: vals})
		}
	}
	idx, vals := relation.SortByValue(col, n.Tset)
	return lc.storePerm(key, &sortedProj{idx: idx, vals: vals})
}

// storePerm caches a computed projection for the rest of the level (when
// the level cache is live) and returns it.
func (lc *levelContext) storePerm(key permKey, sp *sortedProj) *sortedProj {
	if lc.perms != nil {
		lc.perms[key] = sp
	}
	return sp
}

// isIdentity reports whether tset is exactly 0,1,2,…,len-1.
func isIdentity(tset []int) bool {
	for k, v := range tset {
		if v != k {
			return false
		}
	}
	return true
}

// catScratch is a reusable counting-sort arena for categorical plans. The
// counts slice is kept all-zero between uses (each user resets only the
// entries it touched); orderOf and the rest are overwritten per plan.
type catScratch struct {
	counts  []int32  // per code: bucket size, then fill cursor; zeroed after
	orderOf []int32  // per code: presentation rank; -1 = not yet ranked
	present []uint32 // distinct codes of the current node
	ranks   codesByRank
}

// codesByRank sorts a node's present codes by presentation rank without
// allocating (sort.Sort on a pooled pointer receiver).
type codesByRank struct {
	codes []uint32
	rank  []int32
}

func (s *codesByRank) Len() int           { return len(s.codes) }
func (s *codesByRank) Less(i, j int) bool { return s.rank[s.codes[i]] < s.rank[s.codes[j]] }
func (s *codesByRank) Swap(i, j int)      { s.codes[i], s.codes[j] = s.codes[j], s.codes[i] }

// catScratchFor checks a scratch arena out of the pool, sized for a
// dictionary of card codes. Return it with lc.scratch.Put.
func (lc *levelContext) catScratchFor(card int) *catScratch {
	sc, _ := lc.scratch.Get().(*catScratch)
	if sc == nil {
		sc = &catScratch{}
	}
	if cap(sc.counts) < card {
		sc.counts = make([]int32, card)
	} else {
		sc.counts = sc.counts[:card]
	}
	if cap(sc.orderOf) < card {
		sc.orderOf = make([]int32, card)
	} else {
		sc.orderOf = sc.orderOf[:card]
	}
	for i := range sc.orderOf {
		sc.orderOf[i] = -1
	}
	return sc
}

// pathPred converts a label into the workload-side path predicate; closed
// upper bounds are widened by one ulp so overlap semantics match the
// estimator's.
func pathPred(l Label) workload.PathPred {
	switch l.Kind {
	case LabelValue:
		return workload.PathPred{Attr: l.Attr, Value: l.Value}
	case LabelValueSet:
		return workload.PathPred{Attr: l.Attr, Values: l.Values}
	case LabelRange:
		hi := l.Hi
		if l.HiInc {
			hi = math.Nextafter(hi, math.Inf(1))
		}
		return workload.PathPred{Attr: l.Attr, IsRange: true, Lo: l.Lo, Hi: hi}
	default:
		return workload.PathPred{}
	}
}

// conditionalProbs overwrites the plan's probabilities for node si with
// path-conditional estimates when the compatible set gives enough support;
// it returns the node's conditional SHOWTUPLES probability and whether the
// conditional model applied.
func (lc *levelContext) conditionalProbs(n *Node, specs []childSpec) (pw float64, ok bool) {
	if lc.corr == nil {
		return 0, false
	}
	ids := lc.compat[n]
	if len(ids) < lc.opts.MinCondSupport {
		return 0, false
	}
	preds := make([]workload.PathPred, len(specs))
	for i, sp := range specs {
		preds[i] = pathPred(sp.label)
	}
	attr := ""
	if len(specs) > 0 {
		attr = specs[0].label.Attr
	}
	attrN, overlap := lc.corr.CountChildren(ids, attr, preds)
	if attrN < lc.opts.MinCondSupport {
		return 0, false
	}
	for i := range specs {
		specs[i].p = float64(overlap[i]) / float64(attrN)
	}
	return 1 - float64(attrN)/float64(len(ids)), true
}

// domainValues returns the candidate single-value categories for a
// categorical attribute, ordered by occurrence count descending (§5.1.2):
// the values of the query's IN clause when present, otherwise the distinct
// values appearing in the union of the level's tuple-sets.
func (lc *levelContext) domainValues(attr string, s []*Node) []string {
	var values []string
	if lc.q != nil {
		if c := lc.q.Cond(attr); c != nil && !c.IsRange {
			values = append(values, c.Values...)
		}
	}
	if values == nil {
		col, err := lc.r.CatColumn(attr)
		if err != nil {
			return nil
		}
		seen := make([]bool, col.Card())
		distinct := 0
		for _, n := range s {
			for _, i := range n.Tset {
				if c := col.Codes[i]; !seen[c] {
					seen[c] = true
					distinct++
				}
			}
		}
		values = make([]string, 0, distinct)
		for c, hit := range seen {
			if hit {
				values = append(values, col.Dict[c])
			}
		}
	}
	sort.Slice(values, func(i, j int) bool {
		oi, oj := lc.stats.Occ(attr, values[i]), lc.stats.Occ(attr, values[j])
		if oi != oj {
			return oi > oj
		}
		return values[i] < values[j]
	})
	return values
}

// domainRange returns the numeric domain [vmin, vmax] the level partitions:
// the query's range condition when fully bounded (§5.1.3), otherwise the
// data min/max across the level's tuple-sets.
func (lc *levelContext) domainRange(attr string, s []*Node) (vmin, vmax float64, ok bool) {
	if lc.q != nil {
		if c := lc.q.Cond(attr); c != nil && c.IsRange && c.LoSet && c.HiSet {
			return c.Lo, c.Hi, true
		}
	}
	vmin, vmax = math.Inf(1), math.Inf(-1)
	col, err := lc.r.NumColumn(attr)
	if err != nil {
		return 0, 0, false
	}
	any := false
	for _, n := range s {
		for _, i := range n.Tset {
			v := col[i]
			if v < vmin {
				vmin = v
			}
			if v > vmax {
				vmax = v
			}
			any = true
		}
	}
	return vmin, vmax, any
}

// categoricalPlan implements §5.1.2: single-value categories, one per domain
// value, presented in decreasing occurrence-count order; empty categories
// are dropped per node.
func (lc *levelContext) categoricalPlan(attr string, s []*Node) *plan {
	scl := lc.domainValues(attr, s)
	if len(scl) == 0 {
		return nil
	}
	nAttr := lc.stats.NAttr(attr)
	pl := lc.codePartition(attr, scl, s)
	if pl == nil {
		return nil
	}
	for si, n := range s {
		specs := lc.mergeOther(attr, pl.children[si], nAttr)
		lc.applyConditional(pl, si, n, specs)
		pl.children[si] = specs
	}
	return pl
}

// codePartition partitions every node in S by the attribute's dictionary
// codes with a counting sort, emitting one single-value childSpec per
// occurring value, ordered by the value's rank in scl (values outside scl —
// only possible when a query's IN clause understates the data — rank after
// it, in first-encounter order). Bucket tuple order is the node's Tset
// order, and each node's tuple-sets share one arena allocation. The
// exploration probability of value v is occ(v)/NAttr capped at 1 (1 when
// the workload never uses the attribute) — the independent estimate both
// the cost-based and the baseline partitioners use.
func (lc *levelContext) codePartition(attr string, scl []string, s []*Node) *plan {
	col, err := lc.r.CatColumn(attr)
	if err != nil {
		return nil
	}
	nAttr := lc.stats.NAttr(attr)
	sc := lc.catScratchFor(col.Card())
	defer lc.scratch.Put(sc)
	rank := int32(0)
	for _, v := range scl {
		if c, ok := col.Code(v); ok {
			sc.orderOf[c] = rank
		}
		rank++
	}
	pl := &plan{attr: attr, children: make([][]childSpec, len(s))}
	for si, n := range s {
		present := sc.present[:0]
		for _, row := range n.Tset {
			c := col.Codes[row]
			if sc.counts[c] == 0 {
				if sc.orderOf[c] < 0 {
					sc.orderOf[c] = rank
					rank++
				}
				present = append(present, c)
			}
			sc.counts[c]++
		}
		sc.present = present // keep any growth for the next node
		sc.ranks = codesByRank{codes: present, rank: sc.orderOf}
		sort.Sort(&sc.ranks)

		// Lay the buckets out consecutively in one arena; counts[c] becomes
		// the fill cursor of value c's bucket. The arena is freshly
		// allocated because the winning plan's tuple-sets live on in the
		// tree.
		arena := make([]int, len(n.Tset))
		specs := make([]childSpec, len(present))
		off := int32(0)
		for k, c := range present {
			v := col.Dict[c]
			p := 1.0
			if nAttr > 0 {
				p = float64(lc.stats.Occ(attr, v)) / float64(nAttr)
				if p > 1 {
					p = 1
				}
			}
			specs[k] = childSpec{label: Label{Kind: LabelValue, Attr: attr, Value: v}, p: p}
			cnt := sc.counts[c]
			sc.counts[c] = off
			off += cnt
		}
		for _, row := range n.Tset {
			c := col.Codes[row]
			arena[sc.counts[c]] = row
			sc.counts[c]++
		}
		// After the fill, counts[c] is the end offset of c's bucket and the
		// buckets are consecutive, so bucket k spans [end(k−1), end(k)). The
		// three-index slice keeps a later append (mergeOther) from spilling
		// into the neighbouring bucket.
		start := int32(0)
		for k, c := range present {
			end := sc.counts[c]
			specs[k].tset = arena[start:end:end]
			start = end
			sc.counts[c] = 0 // restore the all-zero invariant
		}
		pl.children[si] = specs
	}
	return pl
}

// mergeOther enforces Options.MaxCategories: the tail of the occ-ordered
// single-value categories collapses into one multi-value "Other" category
// whose exploration probability is the capped sum of its members'.
func (lc *levelContext) mergeOther(attr string, specs []childSpec, nAttr int) []childSpec {
	max := lc.opts.MaxCategories
	if max <= 1 || len(specs) <= max {
		return specs
	}
	head := specs[:max-1]
	tail := specs[max-1:]
	values := make([]string, 0, len(tail))
	var tset []int
	occSum := 0
	for _, sp := range tail {
		values = append(values, sp.label.Value)
		tset = append(tset, sp.tset...)
		occSum += lc.stats.Occ(attr, sp.label.Value)
	}
	sort.Strings(values)
	sort.Ints(tset)
	p := 1.0
	if nAttr > 0 {
		if occSum > nAttr {
			occSum = nAttr
		}
		p = float64(occSum) / float64(nAttr)
	}
	other := childSpec{
		label: Label{Kind: LabelValueSet, Attr: attr, Values: values},
		tset:  tset,
		p:     p,
	}
	return append(head, other)
}

// applyConditional records the conditional probabilities for node si when
// the correlation model has enough support, keeping categories ordered by
// decreasing (now conditional) exploration probability for categorical
// levels. Numeric buckets keep their ascending-value order per §5.1.3.
func (lc *levelContext) applyConditional(pl *plan, si int, n *Node, specs []childSpec) {
	pw, ok := lc.conditionalProbs(n, specs)
	if !ok {
		return
	}
	if pl.pw == nil {
		pl.pw = make([]float64, len(pl.children))
		for i := range pl.pw {
			pl.pw[i] = -1
		}
	}
	pl.pw[si] = pw
	if len(specs) > 0 && specs[0].label.Kind == LabelValue {
		sort.SliceStable(specs, func(a, b int) bool { return specs[a].p > specs[b].p })
	}
}

// numericPlan implements §5.1.3: per node, choose the top (m−1) necessary
// splitpoints by workload goodness and emit the resulting buckets in
// ascending value order. The splitpoint list is computed once per level; the
// necessity test — each adjacent bucket keeps at least MinBucket tuples — is
// per node.
func (lc *levelContext) numericPlan(attr string, s []*Node) *plan {
	vmin, vmax, ok := lc.domainRange(attr, s)
	if !ok || vmin >= vmax {
		return nil
	}
	st := lc.stats.Splits(attr)
	var spl []workload.Splitpoint
	if st != nil {
		spl = st.Candidates(vmin, vmax, true, lc.opts.MaxZeroCandidates)
	}
	nAttr := lc.stats.NAttr(attr)
	pl := &plan{attr: attr, children: make([][]childSpec, len(s))}
	pos, _ := lc.r.Schema().Lookup(attr)
	col, err := lc.r.NumColumn(attr)
	if err != nil {
		return nil
	}
	for si, n := range s {
		sp := lc.sortedProjection(n, pos, col)
		// buildBuckets takes ownership of idx (the tree keeps slices of it),
		// so hand it a copy and leave the cached permutation untouched.
		idx := make([]int, len(sp.idx))
		copy(idx, sp.idx)
		cuts := selectSplitpoints(spl, sp.vals, lc.maxBuckets(spl)-1, lc.opts.MinBucket)
		specs := lc.buildBuckets(attr, vmin, vmax, cuts, sp.vals, idx, nAttr)
		lc.applyConditional(pl, si, n, specs)
		pl.children[si] = specs
	}
	return pl
}

// maxBuckets returns m for this level: the configured maximum, or — with
// AutoBuckets — as many splitpoints as score at least 5% of the best
// goodness (the paper notes goodness may determine m automatically).
func (lc *levelContext) maxBuckets(spl []workload.Splitpoint) int {
	m := lc.opts.MaxBuckets
	if !lc.opts.AutoBuckets || len(spl) == 0 || spl[0].Goodness == 0 {
		return m
	}
	threshold := spl[0].Goodness / 20
	count := 0
	for _, sp := range spl {
		if sp.Goodness > threshold {
			count++
		}
	}
	if count+1 > m {
		m = count + 1
	}
	return m
}

// selectSplitpoints walks the goodness-ordered candidates and keeps the
// first need splitpoints that are necessary: within the currently chosen cut
// set, both buckets adjacent to the new cut must retain at least minBucket
// tuples (vals is the node's sorted value list). It returns the chosen cuts
// in ascending order.
func selectSplitpoints(spl []workload.Splitpoint, vals []float64, need, minBucket int) []float64 {
	if need <= 0 || len(vals) == 0 {
		return nil
	}
	cuts := make([]float64, 0, need)      // kept sorted
	countIn := func(lo, hi float64) int { // tuples with lo <= v < hi
		return sort.SearchFloat64s(vals, hi) - sort.SearchFloat64s(vals, lo)
	}
	for _, cand := range spl {
		if len(cuts) >= need {
			break
		}
		pos := sort.SearchFloat64s(cuts, cand.Value)
		if pos < len(cuts) && cuts[pos] == cand.Value {
			continue
		}
		lo, hi := math.Inf(-1), math.Inf(1)
		if pos > 0 {
			lo = cuts[pos-1]
		}
		if pos < len(cuts) {
			hi = cuts[pos]
		}
		if countIn(lo, cand.Value) < minBucket || countIn(cand.Value, hi) < minBucket {
			continue // unnecessary: a side would be too thin (§5.1.3)
		}
		cuts = append(cuts, 0)
		copy(cuts[pos+1:], cuts[pos:])
		cuts[pos] = cand.Value
	}
	return cuts
}

// buildBuckets materializes the ascending bucket children for one node from
// the chosen cuts. idx/vals are the node's tuples sorted by attribute value;
// buildBuckets takes ownership of idx — the buckets are disjoint contiguous
// ranges of it, so each tuple-set is a subslice and the caller must not
// reuse or modify idx afterwards. Empty buckets are dropped; the last kept
// bucket closes its upper bound so vmax is covered.
func (lc *levelContext) buildBuckets(attr string, vmin, vmax float64, cuts, vals []float64, idx []int, nAttr int) []childSpec {
	bounds := make([]float64, 0, len(cuts)+2)
	bounds = append(bounds, vmin)
	bounds = append(bounds, cuts...)
	bounds = append(bounds, vmax)
	specs := make([]childSpec, 0, len(bounds)-1)
	for b := 0; b+1 < len(bounds); b++ {
		lo, hi := bounds[b], bounds[b+1]
		last := b+2 == len(bounds)
		var start, end int
		start = sort.SearchFloat64s(vals, lo)
		if last {
			end = len(vals)
		} else {
			end = sort.SearchFloat64s(vals, hi)
		}
		if start == end {
			continue
		}
		label := Label{Kind: LabelRange, Attr: attr, Lo: lo, Hi: hi, HiInc: last}
		p := 1.0
		if nAttr > 0 {
			phi := hi
			if last {
				phi = math.Nextafter(hi, math.Inf(1))
			}
			p = float64(lc.stats.NOverlapRange(attr, lo, phi)) / float64(nAttr)
			if p > 1 {
				p = 1
			}
		}
		specs = append(specs, childSpec{label: label, tset: idx[start:end:end], p: p})
	}
	return specs
}

// planFor dispatches on the attribute's type. It returns nil when the
// attribute is absent from the schema or yields no partition.
func (lc *levelContext) planFor(attr string, s []*Node) *plan {
	typ, ok := lc.r.Schema().TypeOf(attr)
	if !ok {
		return nil
	}
	var pl *plan
	if typ == relation.Categorical {
		pl = lc.categoricalPlan(attr, s)
	} else {
		pl = lc.numericPlan(attr, s)
	}
	if pl == nil || !pl.partitions() {
		return nil
	}
	return pl
}

// planCost evaluates the Figure 6 objective for a plan:
//
//	COST_A = Σ_{C∈S} P(C) · CostAll(Tree(C, A))
//
// where Tree(C, A) is the two-level tree with C as root (SHOWTUPLES
// probability 1−NAttr(A)/N) and the proposed children as leaves.
func (lc *levelContext) planCost(pl *plan, s []*Node) float64 {
	indepPw := lc.est.ShowTuplesProb(pl.attr)
	total := 0.0
	for si, n := range s {
		total += n.P * twoLevelCostAllSpecs(n.Size(), pl.nodePw(si, indepPw), lc.opts.K, pl.children[si])
	}
	return total
}

// attach materializes the winning plan: each node in S gets the plan's
// children, its SubAttr, and its non-leaf SHOWTUPLES probability; the new
// children start as leaves (Pw = 1). All of the level's nodes come from one
// arena allocation — a level attaches hundreds of categories at paper
// scale, and one &Node{} per category was the categorizer's single largest
// allocation source. It returns the new frontier.
func (lc *levelContext) attach(pl *plan, s []*Node) []*Node {
	indepPw := lc.est.ShowTuplesProb(pl.attr)
	total := 0
	for _, specs := range pl.children {
		if len(specs) > 1 {
			total += len(specs)
		}
	}
	arena := make([]Node, total)
	frontier := make([]*Node, 0, total)
	k := 0
	for si, n := range s {
		specs := pl.children[si]
		if len(specs) <= 1 {
			continue // not worth a level for this node; stays a leaf
		}
		n.SubAttr = pl.attr
		n.Pw = pl.nodePw(si, indepPw)
		if cap(n.Children) < len(specs) {
			n.Children = make([]*Node, 0, len(specs))
		}
		for _, sp := range specs {
			child := &arena[k]
			k++
			*child = Node{Label: sp.label, Tset: sp.tset, P: sp.p, Pw: 1}
			n.Children = append(n.Children, child)
			frontier = append(frontier, child)
			if lc.corr != nil {
				lc.compat[child] = lc.corr.FilterCompatible(lc.compat[n], pathPred(child.Label))
			}
		}
		if lc.corr != nil {
			delete(lc.compat, n) // parent set no longer needed
		}
	}
	return frontier
}

// equalFoldContains reports whether list contains s case-insensitively.
func equalFoldContains(list []string, s string) bool {
	for _, v := range list {
		if strings.EqualFold(v, s) {
			return true
		}
	}
	return false
}
