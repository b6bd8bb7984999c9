package category

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// leaf builds a leaf node with the given size and exploration probability.
func leaf(size int, p float64) *Node {
	return &Node{Label: Label{Kind: LabelValue, Attr: "a", Value: "v"}, Tset: make([]int, size), P: p, Pw: 1}
}

func TestCostAllLeaf(t *testing.T) {
	if got := CostAll(leaf(17, 0.3), 1); got != 17 {
		t.Fatalf("CostAll(leaf) = %v; want 17 (= |tset|)", got)
	}
}

// TestCostAllExample41 reproduces Example 4.1's arithmetic: a root with 3
// subcategories, the first having 3 subcategories of which the middle one
// holds 20 tuples. With deterministic choices (P=1 on the explored path,
// Pw=0 on internal nodes until the SHOWTUPLES leaf) the cost is
// 3 + 3 + 20 = 26.
func TestCostAllExample41(t *testing.T) {
	priceMid := leaf(20, 1) // "Price: 225K-250K", explored via SHOWTUPLES
	priceLo := leaf(30, 0)  // ignored
	priceHi := leaf(40, 0)  // ignored
	hood1 := &Node{
		Label:    Label{Kind: LabelValue, Attr: "neighborhood", Value: "Redmond, Bellevue"},
		Children: []*Node{priceLo, priceMid, priceHi},
		Tset:     make([]int, 90),
		SubAttr:  "price",
		P:        1, // explored
		Pw:       0, // SHOWCAT
	}
	hood2 := leaf(50, 0) // ignored
	hood3 := leaf(60, 0) // ignored
	root := &Node{
		Label:    Label{Kind: LabelAll},
		Children: []*Node{hood1, hood2, hood3},
		Tset:     make([]int, 200),
		SubAttr:  "neighborhood",
		P:        1,
		Pw:       0,
	}
	if got := CostAll(root, 1); got != 26 {
		t.Fatalf("CostAll = %v; want 26 (Example 4.1)", got)
	}
}

func TestCostAllShowTuplesDominates(t *testing.T) {
	// With Pw=1 at the root the cost is exactly |tset(root)| regardless of
	// the subtree.
	root := &Node{
		Label:    Label{Kind: LabelAll},
		Children: []*Node{leaf(5, 1), leaf(5, 1)},
		Tset:     make([]int, 10),
		SubAttr:  "a",
		P:        1,
		Pw:       1,
	}
	if got := CostAll(root, 1); got != 10 {
		t.Fatalf("CostAll = %v; want 10", got)
	}
}

func TestCostAllMixedProbability(t *testing.T) {
	// Hand-computed: Pw=0.25, |tset|=100, two children (sizes 60/40,
	// P 0.5/0.1), K=2.
	// SHOWCAT = 2*2 + 0.5*60 + 0.1*40 = 38; cost = 0.25*100 + 0.75*38 = 53.5
	root := &Node{
		Label:    Label{Kind: LabelAll},
		Children: []*Node{leaf(60, 0.5), leaf(40, 0.1)},
		Tset:     make([]int, 100),
		SubAttr:  "a",
		P:        1,
		Pw:       0.25,
	}
	if got := CostAll(root, 2); math.Abs(got-53.5) > 1e-12 {
		t.Fatalf("CostAll = %v; want 53.5", got)
	}
}

func TestCostOneLeaf(t *testing.T) {
	if got := CostOne(leaf(40, 1), 1, 0.5); got != 20 {
		t.Fatalf("CostOne(leaf) = %v; want 20 (= frac·|tset|)", got)
	}
}

func TestCostOneHandComputed(t *testing.T) {
	// Root: Pw=0, two children: C1 (P=0.5, 10 tuples), C2 (P=1, 30 tuples),
	// K=1, frac=0.5. CostOne(C1)=5, CostOne(C2)=15.
	// Σ = P(C1)*(K*1 + 5) + (1-P(C1))*P(C2)*(K*2 + 15)
	//   = 0.5*6 + 0.5*1*17 = 3 + 8.5 = 11.5
	root := &Node{
		Label:    Label{Kind: LabelAll},
		Children: []*Node{leaf(10, 0.5), leaf(30, 1)},
		Tset:     make([]int, 40),
		SubAttr:  "a",
		P:        1,
		Pw:       0,
	}
	if got := CostOne(root, 1, 0.5); math.Abs(got-11.5) > 1e-12 {
		t.Fatalf("CostOne = %v; want 11.5", got)
	}
}

func TestCostOneShowTuplesBranch(t *testing.T) {
	// Pw=1: cost = frac*|tset| regardless of children.
	root := &Node{
		Label:    Label{Kind: LabelAll},
		Children: []*Node{leaf(10, 1)},
		Tset:     make([]int, 10),
		SubAttr:  "a",
		P:        1,
		Pw:       1,
	}
	if got := CostOne(root, 1, 0.25); got != 2.5 {
		t.Fatalf("CostOne = %v; want 2.5", got)
	}
}

// randomTwoLevel builds a root with n leaf children having random sizes and
// probabilities.
func randomTwoLevel(r *rand.Rand, n int) *Node {
	children := make([]*Node, n)
	total := 0
	for i := range children {
		size := 1 + r.Intn(50)
		total += size
		children[i] = leaf(size, float64(1+r.Intn(100))/100)
	}
	return &Node{
		Label:    Label{Kind: LabelAll},
		Children: children,
		Tset:     make([]int, total),
		SubAttr:  "a",
		P:        1,
		Pw:       r.Float64(),
	}
}

// TestAppendixAOrderingOptimal verifies the Appendix-A theorem: ordering
// children by increasing 1/P + CostOne achieves the brute-force minimum
// CostOne over all child permutations (DESIGN.md invariant 5).
func TestAppendixAOrderingOptimal(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5) // ≤6 children keeps 720 permutations cheap
		root := randomTwoLevel(r, n)
		k := float64(1+r.Intn(3)) / 2
		frac := 0.5
		best := BestOrderBruteForce(root, k, frac)
		OrderOptimalOne(root, k, frac)
		got := CostOne(root, k, frac)
		if got > best+1e-9 {
			t.Logf("seed %d: optimal ordering cost %v > brute-force best %v", seed, got, best)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCostAllOrderInvariant checks §5.1.2's observation that the ALL cost
// does not depend on child order.
func TestCostAllOrderInvariant(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := randomTwoLevel(r, 2+r.Intn(6))
		before := CostAll(root, 1)
		perm := r.Perm(len(root.Children))
		shuffled := make([]*Node, len(root.Children))
		for i, j := range perm {
			shuffled[i] = root.Children[j]
		}
		root.Children = shuffled
		after := CostAll(root, 1)
		return math.Abs(before-after) < 1e-9
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOrderByPMatchesOptimalWhenCostsEqual: when all child costs are equal,
// decreasing P equals increasing 1/P + cost, so the heuristic is optimal.
func TestOrderByPMatchesOptimalWhenCostsEqual(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		children := make([]*Node, n)
		for i := range children {
			children[i] = leaf(10, float64(1+r.Intn(100))/100) // same size => same CostOne
		}
		root := &Node{Label: Label{Kind: LabelAll}, Children: children,
			Tset: make([]int, 10*n), SubAttr: "a", P: 1, Pw: 0}
		best := BestOrderBruteForce(root, 1, 0.5)
		OrderByP(root)
		got := CostOne(root, 1, 0.5)
		return math.Abs(got-best) < 1e-9
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCostsNonNegativeFinite is DESIGN.md invariant 6 on random trees.
func TestCostsNonNegativeFinite(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := randomDeepTree(r, 0)
		a := CostAll(root, 1)
		o := CostOne(root, 1, 0.5)
		return a >= 0 && o >= 0 && !math.IsInf(a, 1) && !math.IsInf(o, 1) &&
			!math.IsNaN(a) && !math.IsNaN(o)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func randomDeepTree(r *rand.Rand, depth int) *Node {
	n := &Node{Label: Label{Kind: LabelAll}, P: r.Float64(), Pw: 1}
	if depth < 3 && r.Intn(2) == 0 {
		k := 1 + r.Intn(4)
		total := 0
		n.SubAttr = "a"
		n.Pw = r.Float64()
		for i := 0; i < k; i++ {
			c := randomDeepTree(r, depth+1)
			total += c.Size()
			n.Children = append(n.Children, c)
		}
		n.Tset = make([]int, total)
	} else {
		n.Tset = make([]int, r.Intn(30))
	}
	return n
}

func TestOrderOptimalOneZeroProbabilityLast(t *testing.T) {
	z := leaf(5, 0)
	hot := leaf(5, 0.9)
	root := &Node{Label: Label{Kind: LabelAll}, Children: []*Node{z, hot},
		Tset: make([]int, 10), SubAttr: "a", P: 1, Pw: 0}
	OrderOptimalOne(root, 1, 0.5)
	if root.Children[0] != hot {
		t.Fatal("zero-probability child should sort after hot child")
	}
}

func TestOrderTreeOptimalOneRecurses(t *testing.T) {
	inner := &Node{
		Label:    Label{Kind: LabelValue, Attr: "a", Value: "x"},
		Children: []*Node{leaf(100, 0.1), leaf(2, 0.9)},
		Tset:     make([]int, 102), SubAttr: "b", P: 0.5, Pw: 0,
	}
	// Give the inner children distinct Attr to satisfy nothing; ordering only.
	inner.Children[0].Label.Attr = "b"
	inner.Children[1].Label.Attr = "b"
	root := &Node{Label: Label{Kind: LabelAll}, Children: []*Node{inner},
		Tset: make([]int, 102), SubAttr: "a", P: 1, Pw: 0}
	tree := &Tree{Root: root, K: 1}
	OrderTreeOptimalOne(tree, 0.5)
	if inner.Children[0].Size() != 2 {
		t.Fatal("inner children not reordered bottom-up (small high-P child should lead)")
	}
}

func TestTreeCostWrappers(t *testing.T) {
	root := randomTwoLevel(rand.New(rand.NewSource(1)), 3)
	tree := &Tree{Root: root, K: 1}
	if got, want := TreeCostAll(tree), CostAll(root, 1); got != want {
		t.Errorf("TreeCostAll = %v; want %v", got, want)
	}
	if got, want := TreeCostOne(tree, 0.5), CostOne(root, 1, 0.5); got != want {
		t.Errorf("TreeCostOne = %v; want %v", got, want)
	}
}

func TestTwoLevelCostAllMatchesGeneral(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := randomTwoLevel(r, 1+r.Intn(6))
		specs := make([]childSpec, len(root.Children))
		for i, c := range root.Children {
			specs[i] = childSpec{tset: c.Tset, p: c.P}
		}
		k := 1.5
		want := CostAll(root, k)
		got := twoLevelCostAllSpecs(root.Size(), root.Pw, k, specs)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
