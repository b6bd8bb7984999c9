package category

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestLabelString(t *testing.T) {
	tests := []struct {
		l    Label
		want string
	}{
		{Label{Kind: LabelAll}, "ALL"},
		{Label{Kind: LabelValue, Attr: "Neighborhood", Value: "Redmond, WA"}, "Neighborhood: Redmond, WA"},
		{Label{Kind: LabelRange, Attr: "Price", Lo: 200000, Hi: 225000}, "Price: 200000-225000"},
		{Label{Kind: LabelRange, Attr: "Price", Lo: 1.5, Hi: 2.25}, "Price: 1.5-2.25"},
	}
	for _, tc := range tests {
		if got := tc.l.String(); got != tc.want {
			t.Errorf("String() = %q; want %q", got, tc.want)
		}
	}
}

// fmtLabelString is Label.String as it was written with fmt, kept as the
// reference the strconv rendering must match byte for byte.
func fmtLabelString(l Label) string {
	num := func(v float64) string {
		if math.IsInf(v, -1) {
			return "min"
		}
		if math.IsInf(v, 1) {
			return "max"
		}
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%g", v)
	}
	switch l.Kind {
	case LabelValue:
		return fmt.Sprintf("%s: %s", l.Attr, l.Value)
	case LabelValueSet:
		if len(l.Values) <= 3 {
			return fmt.Sprintf("%s: %s", l.Attr, strings.Join(l.Values, ", "))
		}
		return fmt.Sprintf("%s: Other (%d values)", l.Attr, len(l.Values))
	case LabelRange:
		return fmt.Sprintf("%s: %s-%s", l.Attr, num(l.Lo), num(l.Hi))
	default:
		return "ALL"
	}
}

func TestLabelStringMatchesFmt(t *testing.T) {
	labels := []Label{
		{Kind: LabelAll},
		{Kind: LabelAll, Attr: "price"},
		{Kind: LabelValue, Attr: "neighborhood", Value: "Redmond, WA"},
		{Kind: LabelValue, Attr: "neighborhood", Value: ""},
		{Kind: LabelValue, Attr: "a-rather-long-attribute-name-for-the-buffer", Value: "and a value that outgrows sixty-four bytes"},
		{Kind: LabelValueSet, Attr: "neighborhood"},
		{Kind: LabelValueSet, Attr: "neighborhood", Values: []string{"Bellevue, WA"}},
		{Kind: LabelValueSet, Attr: "neighborhood", Values: []string{"Bellevue, WA", "Redmond, WA"}},
		{Kind: LabelValueSet, Attr: "neighborhood", Values: []string{"Bellevue, WA", "Kirkland, WA", "Redmond, WA"}},
		{Kind: LabelValueSet, Attr: "neighborhood", Values: []string{"a", "b", "c", "d"}},
		{Kind: LabelValueSet, Attr: "neighborhood", Values: make([]string, 1234)},
		{Kind: LabelRange, Attr: "price", Lo: math.Inf(-1), Hi: 200000},
		{Kind: LabelRange, Attr: "price", Lo: 975000, Hi: math.Inf(1), HiInc: true},
		{Kind: LabelRange, Attr: "price", Lo: math.Inf(-1), Hi: math.Inf(1)},
	}
	bounds := []float64{
		0, math.Copysign(0, -1), 1, -1, 3, 200000, -225000,
		1e15 - 1, 1e15, -1e15 + 1, -1e15, 1e15 + 2, 1e16, 9007199254740993,
		999999999999999.9, 0.5, -0.25, 1.5, 2.25, 1234.5678, 0.1, 1.0 / 3,
		1e-7, 1.5e-300, 5e-324, 1.5e20, -2.5e21, 1e300, math.MaxFloat64,
		123456789.125, math.NaN(),
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			labels = append(labels, Label{Kind: LabelRange, Attr: "price", Lo: lo, Hi: hi})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		// Random bit patterns reach every exponent; scaled normals hit the
		// integral and fractional forms.
		labels = append(labels,
			Label{Kind: LabelRange, Attr: "x", Lo: math.Float64frombits(rng.Uint64()), Hi: math.Float64frombits(rng.Uint64())},
			Label{Kind: LabelRange, Attr: "x", Lo: math.Round(rng.NormFloat64() * 1e6), Hi: rng.NormFloat64() * 1e3})
	}
	for _, l := range labels {
		if got, want := l.String(), fmtLabelString(l); got != want {
			t.Errorf("String(%+v) = %q; fmt gives %q", l, got, want)
		}
	}
}

func TestLabelPredicate(t *testing.T) {
	s := testSchema()
	inBucket := relation.Tuple{
		relation.StringValue("Bellevue, WA"), relation.NumberValue(210000),
		relation.NumberValue(3), relation.StringValue("Condo"),
	}
	atUpper := relation.Tuple{
		relation.StringValue("Bellevue, WA"), relation.NumberValue(225000),
		relation.NumberValue(3), relation.StringValue("Condo"),
	}
	open := Label{Kind: LabelRange, Attr: "price", Lo: 200000, Hi: 225000}
	closed := Label{Kind: LabelRange, Attr: "price", Lo: 200000, Hi: 225000, HiInc: true}
	if !open.Predicate().Matches(s, inBucket) {
		t.Error("interior tuple must match half-open bucket")
	}
	if open.Predicate().Matches(s, atUpper) {
		t.Error("upper bound must not match half-open bucket")
	}
	if !closed.Predicate().Matches(s, atUpper) {
		t.Error("upper bound must match closed (last) bucket")
	}
	val := Label{Kind: LabelValue, Attr: "neighborhood", Value: "Bellevue, WA"}
	if !val.Predicate().Matches(s, inBucket) {
		t.Error("value label must match its value")
	}
	all := Label{Kind: LabelAll}
	if !all.Predicate().Matches(s, inBucket) {
		t.Error("ALL label matches everything")
	}
}

func TestWalkOrderAndPrune(t *testing.T) {
	a := &Node{Label: Label{Kind: LabelValue, Attr: "x", Value: "a"}}
	b := &Node{Label: Label{Kind: LabelValue, Attr: "x", Value: "b"}}
	a1 := &Node{Label: Label{Kind: LabelValue, Attr: "y", Value: "a1"}}
	a.Children = []*Node{a1}
	a.SubAttr = "y"
	root := &Node{Label: Label{Kind: LabelAll}, Children: []*Node{a, b}, SubAttr: "x"}

	var order []string
	root.Walk(func(n *Node, d int) bool {
		order = append(order, n.Label.String())
		return true
	})
	want := "ALL|x: a|y: a1|x: b"
	if got := strings.Join(order, "|"); got != want {
		t.Fatalf("walk order = %q; want %q", got, want)
	}

	order = nil
	root.Walk(func(n *Node, d int) bool {
		order = append(order, n.Label.String())
		return n.Label.Value != "a" // prune under a
	})
	want = "ALL|x: a|x: b"
	if got := strings.Join(order, "|"); got != want {
		t.Fatalf("pruned walk = %q; want %q", got, want)
	}
}

func TestTreeCounts(t *testing.T) {
	r := testRelation(500)
	c := NewCategorizer(testStats(t), Options{M: 20})
	tree, _ := c.Categorize(r, nil)
	nodes := tree.NodeCount()
	leaves := tree.LeafCount()
	if nodes <= 0 || leaves <= 0 || leaves > nodes+1 {
		t.Fatalf("NodeCount=%d LeafCount=%d inconsistent", nodes, leaves)
	}
	if tree.Depth() != len(tree.LevelAttrs) && tree.Depth() > len(tree.LevelAttrs) {
		t.Fatalf("Depth %d exceeds levels %d", tree.Depth(), len(tree.LevelAttrs))
	}
}

func TestValidateDetectsOverlap(t *testing.T) {
	r := testRelation(10)
	rows := r.Select(nil)
	child1 := &Node{Label: Label{Kind: LabelValue, Attr: "neighborhood", Value: r.Row(0)[0].Str}, Tset: rows[:6]}
	child2 := &Node{Label: Label{Kind: LabelValue, Attr: "neighborhood", Value: r.Row(5)[0].Str}, Tset: rows[5:]}
	// Force overlap at index 5 and make labels lie.
	root := &Node{Label: Label{Kind: LabelAll}, Tset: rows, SubAttr: "neighborhood", Children: []*Node{child1, child2}}
	tree := &Tree{Root: root, R: r}
	if err := tree.Validate(); err == nil {
		t.Fatal("Validate should reject overlapping children")
	}
}

func TestValidateDetectsLabelViolation(t *testing.T) {
	r := testRelation(10)
	rows := r.Select(nil)
	// A single child claiming all tuples belong to one neighborhood.
	child := &Node{Label: Label{Kind: LabelValue, Attr: "neighborhood", Value: "Nowhere"}, Tset: rows}
	root := &Node{Label: Label{Kind: LabelAll}, Tset: rows, SubAttr: "neighborhood", Children: []*Node{child}}
	tree := &Tree{Root: root, R: r}
	if err := tree.Validate(); err == nil {
		t.Fatal("Validate should reject tuples violating their label")
	}
}

func TestValidateDetectsMissingCoverage(t *testing.T) {
	r := testRelation(20)
	rows := r.Select(nil)
	hood := r.Row(0)[0].Str
	var sub []int
	for _, i := range rows {
		if r.Row(i)[0].Str == hood {
			sub = append(sub, i)
		}
	}
	child := &Node{Label: Label{Kind: LabelValue, Attr: "neighborhood", Value: hood}, Tset: sub}
	root := &Node{Label: Label{Kind: LabelAll}, Tset: rows, SubAttr: "neighborhood", Children: []*Node{child}}
	tree := &Tree{Root: root, R: r}
	if err := tree.Validate(); err == nil {
		t.Fatal("Validate should reject children not covering the parent")
	}
}

func TestValidateDetectsRepeatedAttribute(t *testing.T) {
	r := testRelation(30)
	rows := r.Select(nil)
	hood := r.Row(0)[0].Str
	var sub []int
	var rest []int
	for _, i := range rows {
		if r.Row(i)[0].Str == hood {
			sub = append(sub, i)
		} else {
			rest = append(rest, i)
		}
	}
	grand := &Node{Label: Label{Kind: LabelValue, Attr: "neighborhood", Value: hood}, Tset: sub}
	child1 := &Node{Label: Label{Kind: LabelValue, Attr: "neighborhood", Value: hood},
		Tset: sub, SubAttr: "neighborhood", Children: []*Node{grand}}
	others := map[string][]int{}
	for _, i := range rest {
		others[r.Row(i)[0].Str] = append(others[r.Row(i)[0].Str], i)
	}
	children := []*Node{child1}
	for v, ts := range others {
		children = append(children, &Node{Label: Label{Kind: LabelValue, Attr: "neighborhood", Value: v}, Tset: ts})
	}
	root := &Node{Label: Label{Kind: LabelAll}, Tset: rows, SubAttr: "neighborhood", Children: children}
	tree := &Tree{Root: root, R: r}
	if err := tree.Validate(); err == nil {
		t.Fatal("Validate should reject an attribute used at two levels")
	}
}

func TestValidateNilRoot(t *testing.T) {
	if err := (&Tree{}).Validate(); err == nil {
		t.Fatal("Validate should reject a rootless tree")
	}
}

func TestPathPredicate(t *testing.T) {
	r := testRelation(500)
	c := NewCategorizer(testStats(t), Options{M: 20})
	tree, _ := c.Categorize(r, nil)
	if tree.Root.IsLeaf() {
		t.Skip("trivial tree")
	}
	pred, err := tree.PathPredicate([]int{0})
	if err != nil {
		t.Fatalf("PathPredicate: %v", err)
	}
	child := tree.Root.Children[0]
	for _, i := range child.Tset {
		if !pred.Matches(r.Schema(), r.Row(i)) {
			t.Fatalf("tuple %d of child 0 fails its path predicate", i)
		}
	}
	if _, err := tree.PathPredicate([]int{99}); err == nil {
		t.Fatal("out-of-range path should error")
	}
	empty, err := tree.PathPredicate(nil)
	if err != nil || !empty.Matches(r.Schema(), r.Row(0)) {
		t.Fatal("empty path should yield TRUE predicate")
	}
}

func TestTechniqueString(t *testing.T) {
	if CostBased.String() != "Cost-based" || AttrCost.String() != "Attr-cost" || NoCost.String() != "No cost" {
		t.Fatalf("technique names: %v %v %v", CostBased, AttrCost, NoCost)
	}
	if !strings.Contains(Technique(9).String(), "9") {
		t.Fatal("unknown technique should render its number")
	}
}

func TestEstimatorAnnotate(t *testing.T) {
	r := testRelation(500)
	stats := testStats(t)
	c := NewCategorizer(stats, Options{M: 20})
	tree, _ := c.Categorize(r, nil)
	// Zero out and re-annotate; construction-time values must be recovered.
	type snap struct{ p, pw float64 }
	snaps := map[*Node]snap{}
	tree.Root.Walk(func(n *Node, _ int) bool {
		snaps[n] = snap{n.P, n.Pw}
		n.P, n.Pw = -1, -1
		return true
	})
	(&Estimator{Stats: stats}).Annotate(tree)
	tree.Root.Walk(func(n *Node, _ int) bool {
		want := snaps[n]
		if diff(n.P, want.p) > 1e-12 || diff(n.Pw, want.pw) > 1e-12 {
			t.Errorf("node %q: annotate (%v,%v) != construction (%v,%v)",
				n.Label, n.P, n.Pw, want.p, want.pw)
		}
		return true
	})
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestEstimatorUnknownAttribute(t *testing.T) {
	e := &Estimator{Stats: testStats(t)}
	if p := e.ExploreProb(Label{Kind: LabelValue, Attr: "never-queried", Value: "x"}); p != 1 {
		t.Fatalf("ExploreProb over unmined attribute = %v; want 1", p)
	}
	if pw := e.ShowTuplesProb("never-queried"); pw != 1 {
		t.Fatalf("ShowTuplesProb = %v; want 1", pw)
	}
	if pw := e.ShowTuplesProb(""); pw != 1 {
		t.Fatalf("leaf ShowTuplesProb = %v; want 1", pw)
	}
}
