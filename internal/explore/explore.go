// Package explore simulates users navigating category trees, implementing
// the measurement side of the paper's evaluation (§6): given a user's true
// information need (a query) it replays the exploration models of §3.2 over
// a tree and counts the items — category labels and data tuples — the user
// examines, for both the ALL scenario (find every relevant tuple) and the
// ONE scenario (stop at the first).
//
// Two user kinds are supported. A deterministic Intent reproduces the
// synthetic explorations of §6.2: the user drills into exactly the
// categories overlapping her query. A noisy Intent adds the behavioural
// imperfection of real subjects (§6.3): occasionally exploring an
// uninteresting category or overlooking an interesting one.
package explore

import (
	"math"
	"math/rand"

	"repro/internal/category"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// Intent is a simulated user's information need plus behavioural noise.
type Intent struct {
	// Query is the user's true interest: the categories she drills into are
	// those whose labels overlap its selection conditions, and the tuples
	// she considers relevant are those satisfying it.
	Query *sqlparse.Query
	// Rng drives behavioural noise; nil means fully deterministic.
	Rng *rand.Rand
	// ExploreNoise is the probability of exploring a category whose label
	// does not overlap the interest (curiosity / misreading).
	ExploreNoise float64
	// IgnoreNoise is the probability of ignoring a category whose label does
	// overlap the interest (fatigue / overlooking).
	IgnoreNoise float64
	// ShowCatNoise is the probability of flipping the SHOWTUPLES/SHOWCAT
	// choice.
	ShowCatNoise float64
	// ScanFatigue models attention decay while scanning long tuple lists:
	// during a SHOWTUPLES pass over n tuples, each relevant tuple is
	// recognized with probability max(0.05, 1 − ScanFatigue·n/1000). Real
	// study subjects overlooked relevant items in long flat lists — the
	// mechanism behind the paper's Figure 10, where poor categorizations
	// yield fewer relevant finds despite more items examined. Zero (or a nil
	// Rng) disables fatigue.
	ScanFatigue float64
}

// recognitionProb returns the per-relevant-tuple recognition probability for
// a SHOWTUPLES scan over n tuples.
func (in *Intent) recognitionProb(n int) float64 {
	if in.Rng == nil || in.ScanFatigue == 0 {
		return 1
	}
	p := 1 - in.ScanFatigue*float64(n)/1000
	if p < 0.05 {
		p = 0.05
	}
	return p
}

// recognizes draws whether one relevant tuple is spotted during a scan of n
// tuples.
func (in *Intent) recognizes(n int) bool {
	p := in.recognitionProb(n)
	if p >= 1 {
		return true
	}
	return in.Rng.Float64() < p
}

// interestedIn reports whether the user, upon examining the label, decides
// to explore the category (§4.2's presumption plus noise): true when her
// query's condition on the label's attribute overlaps the label, or when she
// has no condition on that attribute at all.
func (in *Intent) interestedIn(l category.Label) bool {
	base := in.overlaps(l)
	if in.Rng == nil {
		return base
	}
	if base {
		if in.IgnoreNoise > 0 && in.Rng.Float64() < in.IgnoreNoise {
			return false
		}
		return true
	}
	if in.ExploreNoise > 0 && in.Rng.Float64() < in.ExploreNoise {
		return true
	}
	return false
}

func (in *Intent) overlaps(l category.Label) bool {
	if l.Kind == category.LabelAll {
		return true
	}
	c := in.Query.Cond(l.Attr)
	if c == nil {
		return true // no condition: interested in all values of the attribute
	}
	switch l.Kind {
	case category.LabelValue:
		if c.IsRange {
			return true // type mismatch cannot arise from one schema; be permissive
		}
		for _, v := range c.Values {
			if v == l.Value {
				return true
			}
		}
		return false
	case category.LabelValueSet:
		if c.IsRange {
			return true
		}
		for _, v := range c.Values {
			for _, lv := range l.Values {
				if v == lv {
					return true
				}
			}
		}
		return false
	case category.LabelRange:
		if !c.IsRange {
			return true
		}
		hi := l.Hi
		if l.HiInc {
			hi = math.Nextafter(hi, math.Inf(1))
		}
		return c.OverlapsInterval(l.Lo, hi)
	default:
		return true
	}
}

// wantsShowCat reports whether the user chooses SHOWCAT at a non-leaf node
// whose children are categorized by subAttr: per §4.2 she does iff she is
// interested in only a few values of subAttr, i.e. her query carries a
// selection condition on it.
func (in *Intent) wantsShowCat(subAttr string) bool {
	base := in.Query.Cond(subAttr) != nil
	if in.Rng != nil && in.ShowCatNoise > 0 && in.Rng.Float64() < in.ShowCatNoise {
		return !base
	}
	return base
}

// Outcome reports what one simulated exploration examined and found.
type Outcome struct {
	// LabelsExamined counts category labels read.
	LabelsExamined int
	// TuplesExamined counts data tuples read.
	TuplesExamined int
	// RelevantFound counts examined tuples satisfying the intent.
	RelevantFound int
	// RelevantTotal counts tuples in the whole result set satisfying the
	// intent.
	RelevantTotal int
	// Found reports, for the ONE scenario, whether a relevant tuple was
	// reached.
	Found bool
	// CategoriesExplored counts the categories drilled into (root excluded).
	CategoriesExplored int
}

// Cost returns the information-overload cost of the exploration: tuples plus
// K-weighted labels (the paper's item count, with labels costing K relative
// to tuples).
func (o Outcome) Cost(k float64) float64 {
	return float64(o.TuplesExamined) + k*float64(o.LabelsExamined)
}

// NormalizedCost is Figure 11's metric: items examined per relevant tuple
// found. It returns +Inf when nothing relevant was found.
func (o Outcome) NormalizedCost(k float64) float64 {
	if o.RelevantFound == 0 {
		return math.Inf(1)
	}
	return o.Cost(k) / float64(o.RelevantFound)
}

// Explorer replays exploration models over trees.
type Explorer struct {
	// K is the label-examination cost used by Outcome.Cost callers; it does
	// not affect which items get examined.
	K float64
}

// All simulates the ALL-scenario exploration (Figure 2): the user explores
// until she has seen every relevant tuple reachable through categories she
// considers interesting.
func (e *Explorer) All(tree *category.Tree, in *Intent) Outcome {
	rel := relevant(tree, in)
	out := Outcome{RelevantTotal: countIn(tree.Root, rel)}
	e.exploreAll(tree.Root, in, rel, &out)
	return out
}

func (e *Explorer) exploreAll(n *category.Node, in *Intent, rel *relation.Bitmap, out *Outcome) {
	if n.IsLeaf() || !in.wantsShowCat(n.SubAttr) {
		// SHOWTUPLES: examine every tuple in tset(C). With fatigue, a
		// relevant tuple in a long list may be overlooked.
		out.TuplesExamined += n.Size()
		for _, i := range n.Tset {
			if rel.Get(i) && in.recognizes(n.Size()) {
				out.RelevantFound++
			}
		}
		return
	}
	// SHOWCAT: examine every child label, explore the interesting ones.
	out.LabelsExamined += len(n.Children)
	for _, c := range n.Children {
		if in.interestedIn(c.Label) {
			out.CategoriesExplored++
			e.exploreAll(c, in, rel, out)
		}
	}
}

// One simulates the ONE-scenario exploration (Figure 3): the user stops at
// the first relevant tuple. Unlike the analytical model — which assumes an
// explored category always yields a relevant tuple — the simulation lets the
// user resume scanning sibling labels when a drill-down comes up empty,
// which is how the treeview study subjects behaved.
func (e *Explorer) One(tree *category.Tree, in *Intent) Outcome {
	rel := relevant(tree, in)
	out := Outcome{RelevantTotal: countIn(tree.Root, rel)}
	e.exploreOne(tree.Root, in, rel, &out)
	return out
}

func (e *Explorer) exploreOne(n *category.Node, in *Intent, rel *relation.Bitmap, out *Outcome) {
	if n.IsLeaf() || !in.wantsShowCat(n.SubAttr) {
		// SHOWTUPLES: scan from the beginning until the first recognized
		// relevant tuple.
		for _, i := range n.Tset {
			out.TuplesExamined++
			if rel.Get(i) && in.recognizes(n.Size()) {
				out.RelevantFound++
				out.Found = true
				return
			}
		}
		return
	}
	for _, c := range n.Children {
		out.LabelsExamined++
		if in.interestedIn(c.Label) {
			out.CategoriesExplored++
			e.exploreOne(c, in, rel, out)
			if out.Found {
				return // found the one tuple; stop reading labels
			}
		}
	}
}

// Few simulates the intermediate scenario the paper names but does not
// model (§3.2: "other scenarios (e.g., user interested in two/few tuples)
// fall in between these two ends"): the user explores until she has found k
// relevant tuples, then stops. Few(tree, in, 1) behaves like One; a k no
// smaller than the relevant count behaves like All.
func (e *Explorer) Few(tree *category.Tree, in *Intent, k int) Outcome {
	if k < 1 {
		k = 1
	}
	rel := relevant(tree, in)
	out := Outcome{RelevantTotal: countIn(tree.Root, rel)}
	e.exploreFew(tree.Root, in, rel, k, &out)
	out.Found = out.RelevantFound > 0
	return out
}

func (e *Explorer) exploreFew(n *category.Node, in *Intent, rel *relation.Bitmap, k int, out *Outcome) {
	if n.IsLeaf() || !in.wantsShowCat(n.SubAttr) {
		// SHOWTUPLES: scan until the k-th relevant tuple overall.
		for _, i := range n.Tset {
			out.TuplesExamined++
			if rel.Get(i) && in.recognizes(n.Size()) {
				out.RelevantFound++
				if out.RelevantFound >= k {
					return
				}
			}
		}
		return
	}
	for _, c := range n.Children {
		out.LabelsExamined++
		if in.interestedIn(c.Label) {
			out.CategoriesExplored++
			e.exploreFew(c, in, rel, k, out)
			if out.RelevantFound >= k {
				return
			}
		}
	}
}

// relevant evaluates the intent's query once over the tree's relation: the
// result holds exactly the rows Query.Predicate() matches, so a scan tests
// each tuple's relevance with one bit.
func relevant(tree *category.Tree, in *Intent) *relation.Bitmap {
	rows := tree.R.Select(in.Query.Predicate())
	bm := relation.NewBitmap(tree.R.Len())
	for _, i := range rows {
		bm.Set(i)
	}
	return bm
}

// countIn counts the relevant tuples in tset(n).
func countIn(n *category.Node, rel *relation.Bitmap) int {
	count := 0
	for _, i := range n.Tset {
		if rel.Get(i) {
			count++
		}
	}
	return count
}

// FlatAll is the "No categorization" baseline for the ALL scenario: the user
// scans the entire result set.
func FlatAll(tree *category.Tree, in *Intent) Outcome {
	total := countIn(tree.Root, relevant(tree, in))
	return Outcome{
		TuplesExamined: tree.Root.Size(),
		RelevantFound:  total,
		RelevantTotal:  total,
	}
}

// FlatOne is the "No categorization" baseline for the ONE scenario: the user
// scans the result set from the top until the first relevant tuple.
func FlatOne(tree *category.Tree, in *Intent) Outcome {
	rel := relevant(tree, in)
	out := Outcome{RelevantTotal: countIn(tree.Root, rel)}
	for _, i := range tree.Root.Tset {
		out.TuplesExamined++
		if rel.Get(i) {
			out.RelevantFound++
			out.Found = true
			break
		}
	}
	return out
}
