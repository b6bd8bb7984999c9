package category

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func TestCategorizeProducesValidTree(t *testing.T) {
	r := testRelation(500)
	c := NewCategorizer(testStats(t), Options{M: 20})
	tree, err := c.Categorize(r, nil)
	if err != nil {
		t.Fatalf("Categorize: %v", err)
	}
	mustValidate(t, tree)
	if tree.Depth() < 1 {
		t.Fatal("tree has no levels")
	}
}

func TestCategorizeRespectsM(t *testing.T) {
	r := testRelation(500)
	c := NewCategorizer(testStats(t), Options{M: 20})
	tree, err := c.Categorize(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With enough attributes every leaf must have ≤ M tuples — unless all
	// partitioning attributes are exhausted on its path.
	tree.Root.Walk(func(n *Node, depth int) bool {
		if n.IsLeaf() && n.Size() > 20 && depth < len(tree.LevelAttrs) {
			t.Errorf("leaf %q at depth %d has %d tuples (> M) with levels remaining", n.Label, depth, n.Size())
		}
		return true
	})
}

func TestCategorizeSelectsHotAttributeFirst(t *testing.T) {
	// neighborhood is the most-selective high-usage attribute; the cost
	// model should never pick the cold propertytype for level 1.
	r := testRelation(500)
	c := NewCategorizer(testStats(t), Options{M: 20})
	tree, _ := c.Categorize(r, nil)
	if len(tree.LevelAttrs) == 0 {
		t.Fatal("no levels chosen")
	}
	if strings.EqualFold(tree.LevelAttrs[0], "propertytype") {
		t.Fatalf("level 1 attribute = %q; cold attribute should not win", tree.LevelAttrs[0])
	}
}

func TestCategorizeAttributeEliminationByX(t *testing.T) {
	stats := testStats(t)
	// usage: neighborhood 85/100, price 60/100, bedrooms 25/100, ptype 15/100
	retained := stats.Retained(0.4)
	want := map[string]bool{"neighborhood": true, "price": true}
	if len(retained) != 2 || !want[strings.ToLower(retained[0])] || !want[strings.ToLower(retained[1])] {
		t.Fatalf("Retained(0.4) = %v; want neighborhood+price", retained)
	}
	r := testRelation(500)
	c := NewCategorizer(stats, Options{M: 20, X: 0.4})
	tree, _ := c.Categorize(r, nil)
	for _, a := range tree.LevelAttrs {
		if !want[strings.ToLower(a)] {
			t.Fatalf("eliminated attribute %q used as a level", a)
		}
	}
}

func TestCategorizeNoAttributeRepeats(t *testing.T) {
	r := testRelation(1000)
	c := NewCategorizer(testStats(t), Options{M: 5, X: 0.1})
	tree, _ := c.Categorize(r, nil)
	seen := map[string]bool{}
	for _, a := range tree.LevelAttrs {
		key := strings.ToLower(a)
		if seen[key] {
			t.Fatalf("attribute %q used at two levels: %v", a, tree.LevelAttrs)
		}
		seen[key] = true
	}
	mustValidate(t, tree)
}

func TestCategorizeSmallResultStaysFlat(t *testing.T) {
	r := testRelation(10) // fewer than M tuples: no partitioning needed
	c := NewCategorizer(testStats(t), Options{M: 20})
	tree, _ := c.Categorize(r, nil)
	if !tree.Root.IsLeaf() {
		t.Fatalf("result with %d ≤ M tuples should not be partitioned", r.Len())
	}
}

func TestCategorizeEmptyResult(t *testing.T) {
	r := relation.New("ListProperty", testSchema())
	c := NewCategorizer(testStats(t), Options{M: 20})
	tree, err := c.Categorize(r, nil)
	if err != nil {
		t.Fatalf("Categorize(empty): %v", err)
	}
	if !tree.Root.IsLeaf() || tree.Root.Size() != 0 {
		t.Fatal("empty result should yield a bare root")
	}
}

func TestCategorizeNilStats(t *testing.T) {
	c := &Categorizer{}
	if _, err := c.Categorize(testRelation(10), nil); err == nil {
		t.Fatal("expected error without workload statistics")
	}
}

func TestCategorizeUsesQueryDomains(t *testing.T) {
	r := testRelation(500)
	q := sqlparse.MustParse("SELECT * FROM ListProperty WHERE neighborhood IN ('Bellevue, WA','Redmond, WA','Seattle, WA') AND price BETWEEN 200000 AND 300000")
	rows := r.Select(q.Predicate())
	c := NewCategorizer(testStats(t), Options{M: 20})
	tree, err := c.CategorizeRows(r, q, rows)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, tree)
	// Every level-1 neighborhood category must be one of the IN values.
	if strings.EqualFold(tree.LevelAttrs[0], "neighborhood") {
		for _, ch := range tree.Root.Children {
			v := ch.Label.Value
			if v != "Bellevue, WA" && v != "Redmond, WA" && v != "Seattle, WA" {
				t.Errorf("unexpected neighborhood category %q", v)
			}
		}
	}
	// Numeric buckets must stay inside the query range.
	tree.Root.Walk(func(n *Node, _ int) bool {
		if n.Label.Kind == LabelRange && strings.EqualFold(n.Label.Attr, "price") {
			if n.Label.Lo < 200000 || n.Label.Hi > 300000 {
				t.Errorf("price bucket %q outside query range", n.Label)
			}
		}
		return true
	})
}

func TestCategoricalChildrenOrderedByOcc(t *testing.T) {
	r := testRelation(800)
	stats := testStats(t)
	c := NewCategorizer(stats, Options{M: 20})
	tree, _ := c.Categorize(r, nil)
	var hoodNode *Node
	if strings.EqualFold(tree.LevelAttrs[0], "neighborhood") {
		hoodNode = tree.Root
	} else {
		tree.Root.Walk(func(n *Node, _ int) bool {
			if hoodNode == nil && strings.EqualFold(n.SubAttr, "neighborhood") {
				hoodNode = n
			}
			return hoodNode == nil
		})
	}
	if hoodNode == nil {
		t.Skip("neighborhood not used at any level in this tree")
	}
	for i := 1; i < len(hoodNode.Children); i++ {
		prev := stats.Occ("neighborhood", hoodNode.Children[i-1].Label.Value)
		cur := stats.Occ("neighborhood", hoodNode.Children[i].Label.Value)
		if cur > prev {
			t.Fatalf("categorical children not in decreasing occ order: %d before %d", prev, cur)
		}
	}
}

func TestNumericBucketsAscending(t *testing.T) {
	r := testRelation(800)
	c := NewCategorizer(testStats(t), Options{M: 20, X: 0.1})
	tree, _ := c.Categorize(r, nil)
	tree.Root.Walk(func(n *Node, _ int) bool {
		var lastHi float64
		for i, ch := range n.Children {
			if ch.Label.Kind != LabelRange {
				return true
			}
			if i > 0 && ch.Label.Lo < lastHi {
				t.Errorf("numeric buckets of %q not ascending/disjoint", n.Label)
			}
			if ch.Label.Lo >= ch.Label.Hi {
				t.Errorf("degenerate bucket %q", ch.Label)
			}
			lastHi = ch.Label.Hi
		}
		return true
	})
}

func TestNumericLastBucketClosed(t *testing.T) {
	r := testRelation(800)
	c := NewCategorizer(testStats(t), Options{M: 20, X: 0.1})
	tree, _ := c.Categorize(r, nil)
	tree.Root.Walk(func(n *Node, _ int) bool {
		for i, ch := range n.Children {
			if ch.Label.Kind != LabelRange {
				return true
			}
			last := i == len(n.Children)-1
			if last && !ch.Label.HiInc {
				t.Errorf("last bucket %q must close its upper bound", ch.Label)
			}
		}
		return true
	})
	mustValidate(t, tree)
}

func TestSplitpointGoodnessDrivesCuts(t *testing.T) {
	// Workload ranges all break at 250000; the level-1 price partitioning of
	// a price-only categorizer must cut there.
	queries := make([]string, 50)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = "SELECT * FROM ListProperty WHERE price BETWEEN 200000 AND 250000"
		} else {
			queries[i] = "SELECT * FROM ListProperty WHERE price BETWEEN 250000 AND 300000"
		}
	}
	w, _ := workload.ParseStrings(queries)
	stats := workload.Preprocess(w, workload.Config{Intervals: map[string]float64{"price": 5000}})
	r := testRelation(400)
	c := NewCategorizer(stats, Options{M: 20, MaxBuckets: 2, CandidateAttrs: []string{"price"}})
	tree, _ := c.Categorize(r, nil)
	if len(tree.Root.Children) != 2 {
		t.Fatalf("want 2 buckets, got %d", len(tree.Root.Children))
	}
	if tree.Root.Children[0].Label.Hi != 250000 {
		t.Fatalf("cut at %v; want 250000 (the unanimous workload splitpoint)", tree.Root.Children[0].Label.Hi)
	}
}

func TestMinBucketSkipsThinSplitpoints(t *testing.T) {
	// All goodness mass at 290000 but only ~5% of tuples above it; with
	// MinBucket forcing ≥ 40% of 100 tuples per side, the 290000 cut is
	// unnecessary and the partitioner must fall back to a lesser splitpoint.
	queries := make([]string, 40)
	for i := range queries {
		if i < 30 {
			queries[i] = "SELECT * FROM ListProperty WHERE price BETWEEN 200000 AND 290000"
		} else {
			queries[i] = "SELECT * FROM ListProperty WHERE price BETWEEN 200000 AND 250000"
		}
	}
	w, _ := workload.ParseStrings(queries)
	stats := workload.Preprocess(w, workload.Config{Intervals: map[string]float64{"price": 5000}})

	r := relation.New("ListProperty", testSchema())
	for i := 0; i < 100; i++ {
		price := 200000.0 + float64(i%19)*5000 // 200k..290k, dense below 290k
		r.MustAppend(relation.Tuple{
			relation.StringValue("Bellevue, WA"),
			relation.NumberValue(price),
			relation.NumberValue(3),
			relation.StringValue("Condo"),
		})
	}
	c := NewCategorizer(stats, Options{M: 20, MaxBuckets: 2, MinBucket: 40, CandidateAttrs: []string{"price"}})
	tree, _ := c.Categorize(r, nil)
	if len(tree.Root.Children) != 2 {
		t.Fatalf("want 2 buckets, got %d", len(tree.Root.Children))
	}
	cut := tree.Root.Children[0].Label.Hi
	if cut == 290000 {
		t.Fatal("290000 splitpoint should be unnecessary (thin right bucket)")
	}
	if cut != 250000 {
		t.Fatalf("fallback cut = %v; want next-best splitpoint 250000", cut)
	}
}

func TestBaselineNoCostValid(t *testing.T) {
	r := testRelation(500)
	b := &Baseline{Stats: testStats(t), Kind: NoCost, Opts: Options{
		M: 20, CandidateAttrs: []string{"neighborhood", "propertytype", "bedrooms", "price"}}}
	tree, err := b.Categorize(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, tree)
	// NoCost takes candidates in the predefined order: neighborhood first.
	if !strings.EqualFold(tree.LevelAttrs[0], "neighborhood") {
		t.Fatalf("NoCost level 1 = %q; want first predefined attribute", tree.LevelAttrs[0])
	}
}

func TestBaselineNoCostLexicographicOrder(t *testing.T) {
	r := testRelation(500)
	b := &Baseline{Stats: testStats(t), Kind: NoCost, Opts: Options{
		M: 20, CandidateAttrs: []string{"neighborhood"}}}
	tree, _ := b.Categorize(r, nil)
	ch := tree.Root.Children
	for i := 1; i < len(ch); i++ {
		if ch[i].Label.Value < ch[i-1].Label.Value {
			t.Fatalf("NoCost categorical order not lexicographic: %q after %q",
				ch[i].Label.Value, ch[i-1].Label.Value)
		}
	}
}

func TestBaselineAttrCostValid(t *testing.T) {
	r := testRelation(500)
	b := &Baseline{Stats: testStats(t), Kind: AttrCost, Opts: Options{
		M: 20, CandidateAttrs: []string{"propertytype", "bedrooms", "neighborhood", "price"}}}
	tree, err := b.Categorize(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, tree)
	// Attr-cost picks by cost, so the cold first-listed attribute should
	// not automatically win level 1.
	if strings.EqualFold(tree.LevelAttrs[0], "propertytype") {
		t.Fatalf("Attr-cost chose the cold predefined-first attribute %q", tree.LevelAttrs[0])
	}
}

func TestBaselineEquiwidthBuckets(t *testing.T) {
	r := testRelation(500)
	b := &Baseline{Stats: testStats(t), Kind: NoCost, Opts: Options{
		M: 20, CandidateAttrs: []string{"price"}}}
	tree, _ := b.Categorize(r, nil)
	// Interval 25000 -> width 125000; domain 200000..295000 has one interior
	// multiple of 125000 at 250000.
	ch := tree.Root.Children
	if len(ch) != 2 {
		t.Fatalf("want 2 equiwidth buckets, got %d", len(ch))
	}
	if ch[0].Label.Hi != 250000 {
		t.Fatalf("equiwidth boundary = %v; want 250000 (multiple of 5×interval)", ch[0].Label.Hi)
	}
	mustValidate(t, tree)
}

func TestBaselineRejectsCostBasedKind(t *testing.T) {
	b := &Baseline{Stats: testStats(t), Kind: CostBased}
	if _, err := b.Categorize(testRelation(50), nil); err == nil {
		t.Fatal("Baseline with CostBased kind should error")
	}
}

func TestCostBasedBeatsBaselinesOnEstimatedCost(t *testing.T) {
	r := testRelation(2000)
	stats := testStats(t)
	attrs := []string{"propertytype", "bedrooms", "price", "neighborhood"}
	opts := Options{M: 20, CandidateAttrs: attrs}

	cb, err := NewCategorizer(stats, opts).Categorize(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := (&Baseline{Stats: stats, Kind: AttrCost, Opts: opts}).Categorize(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := (&Baseline{Stats: stats, Kind: NoCost, Opts: opts}).Categorize(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := &Estimator{Stats: stats}
	est.Annotate(ac)
	est.Annotate(nc)
	cbCost, acCost, ncCost := TreeCostAll(cb), TreeCostAll(ac), TreeCostAll(nc)
	if cbCost > acCost+1e-9 || cbCost > ncCost+1e-9 {
		t.Fatalf("cost-based (%.1f) should not exceed Attr-cost (%.1f) or No-cost (%.1f)",
			cbCost, acCost, ncCost)
	}
}

func TestMaxLevelsBound(t *testing.T) {
	r := testRelation(2000)
	c := NewCategorizer(testStats(t), Options{M: 5, X: 0.1, MaxLevels: 1})
	tree, _ := c.Categorize(r, nil)
	if tree.Depth() > 1 {
		t.Fatalf("Depth = %d; want ≤ 1 with MaxLevels=1", tree.Depth())
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.M != 20 || o.K != 1 || o.X != 0.4 || o.MaxBuckets != 8 || o.MinBucket != 5 || o.Frac != 0.5 {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := Options{M: 2}.withDefaults()
	if o2.MinBucket != 1 {
		t.Fatalf("MinBucket floor = %d; want 1", o2.MinBucket)
	}
}

// TestCategorizeInvariantsProperty fuzzes dataset shapes and parameters,
// checking DESIGN.md invariants 1-4 via Validate plus the leaf-size bound.
func TestCategorizeInvariantsProperty(t *testing.T) {
	stats := testStats(t)
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(500)
		r := relation.New("ListProperty", testSchema())
		hoods := []string{"Bellevue, WA", "Redmond, WA", "Seattle, WA", "Issaquah, WA"}
		types := []string{"Single Family", "Condo"}
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Tuple{
				relation.StringValue(hoods[rng.Intn(len(hoods))]),
				relation.NumberValue(150000 + float64(rng.Intn(50))*5000),
				relation.NumberValue(float64(1 + rng.Intn(7))),
				relation.StringValue(types[rng.Intn(len(types))]),
			})
		}
		m := 5 + rng.Intn(30)
		c := NewCategorizer(stats, Options{
			M: m, X: 0.05, MaxBuckets: 2 + rng.Intn(6), MinBucket: 1,
		})
		tree, err := c.Categorize(r, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := tree.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLevelChoiceIsArgmin: the level-1 attribute the greedy commits must
// yield an estimated cost no worse than forcing any single candidate.
func TestLevelChoiceIsArgmin(t *testing.T) {
	r := testRelation(800)
	stats := testStats(t)
	candidates := []string{"neighborhood", "price", "bedrooms", "propertytype"}
	opts := Options{M: 20, MaxLevels: 1, CandidateAttrs: candidates, X: 0.01}
	chosen, err := NewCategorizer(stats, opts).Categorize(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	chosenCost := TreeCostAll(chosen)
	for _, attr := range candidates {
		forced := opts
		forced.CandidateAttrs = []string{attr}
		tree, err := NewCategorizer(stats, forced).Categorize(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Root.IsLeaf() {
			continue // attribute cannot partition; not a real alternative
		}
		if cost := TreeCostAll(tree); chosenCost > cost+1e-9 {
			t.Errorf("greedy chose %v (cost %.2f) but forcing %q gives %.2f",
				chosen.LevelAttrs, chosenCost, attr, cost)
		}
	}
}

// TestProbabilityBounds: every probability the construction assigns lies in
// [0, 1], across techniques and feature combinations.
func TestProbabilityBounds(t *testing.T) {
	r := testRelation(1200)
	stats := testStats(t)
	trees := []*Tree{}
	cb, err := NewCategorizer(stats, Options{M: 10, X: 0.05, MaxCategories: 4}).Categorize(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	trees = append(trees, cb)
	for _, kind := range []Technique{AttrCost, NoCost} {
		tree, err := (&Baseline{Stats: stats, Kind: kind, Opts: Options{
			M: 10, CandidateAttrs: []string{"propertytype", "price", "neighborhood", "bedrooms"}}}).Categorize(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		(&Estimator{Stats: stats}).Annotate(tree)
		trees = append(trees, tree)
	}
	for ti, tree := range trees {
		tree.Root.Walk(func(n *Node, _ int) bool {
			if n.P < 0 || n.P > 1 || n.Pw < 0 || n.Pw > 1 {
				t.Errorf("tree %d node %q: P=%v Pw=%v outside [0,1]", ti, n.Label, n.P, n.Pw)
			}
			return true
		})
	}
}

// TestCandidateAttrsNotMutated guards the caller's Options.CandidateAttrs
// at every entry point that reads it. A by-value Options still shares the
// slice's backing array, so an in-place removal (removeAttr's old append over
// attrs[:0]) or sort anywhere below would scribble over the caller's slice
// and change any later run sharing it. Each entry point gets an unsorted
// caller slice, runs twice, and must leave the slice as it was and build the
// same result both times.
func TestCandidateAttrsNotMutated(t *testing.T) {
	r := testRelation(500)
	stats := testStats(t)
	baseline := func(kind Technique) func(Options) (string, error) {
		return func(o Options) (string, error) {
			tree, err := (&Baseline{Stats: stats, Opts: o, Kind: kind}).Categorize(r, nil)
			if err != nil {
				return "", err
			}
			return fmt.Sprint(tree.LevelAttrs), nil
		}
	}
	entries := []struct {
		name string
		run  func(Options) (string, error)
	}{
		{"Categorizer.Categorize", func(o Options) (string, error) {
			tree, err := NewCategorizer(stats, o).Categorize(r, nil)
			if err != nil {
				return "", err
			}
			if len(tree.LevelAttrs) < 2 {
				return "", fmt.Errorf("want >= 2 levels so removeAttr runs more than once, got %v", tree.LevelAttrs)
			}
			return fmt.Sprint(tree.LevelAttrs), nil
		}},
		{"Baseline.Categorize/AttrCost", baseline(AttrCost)},
		{"Baseline.Categorize/NoCost", baseline(NoCost)},
		{"Categorizer.OptimalCostAll", func(o Options) (string, error) {
			best, trees, err := NewCategorizer(stats, o).OptimalCostAll(r, nil, EnumerateLimits{MaxSplitpoints: 3})
			return fmt.Sprint(best, trees), err
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			cands := []string{"neighborhood", "price", "bedrooms", "propertytype"}
			want := slices.Clone(cands)
			opts := Options{M: 20, CandidateAttrs: cands}
			first, err := e.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(cands, want) {
				t.Fatalf("caller's CandidateAttrs mutated: got %v, want %v", cands, want)
			}
			second, err := e.run(opts)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if second != first {
				t.Fatalf("second run over the same Options differs: %s vs %s", second, first)
			}
		})
	}
}

// TestConcurrentCategorizeAppend races categorization builds against row
// appends — and therefore column writes past the published count — on a
// shared relation; run under -race (ci.sh's concurrent categorize/append
// step does). The RCU column store guarantees each build sees a consistent
// snapshot: row indices drawn from an older snapshot stay valid because
// rows only append. The relation is the one a durable store serves: its
// rows go through a store whose segment span is 1 (every row its own
// segment file), 64, or the default (every row stays in the WAL tail), and
// come back through Store.Relation.
func TestConcurrentCategorizeAppend(t *testing.T) {
	stats := testStats(t)
	for _, segRows := range []int{1, 64, 0} {
		t.Run(fmt.Sprintf("segRows=%d", segRows), func(t *testing.T) {
			r := durableRelation(t, testRelation(600), segRows)
			template := r.Row(0)

			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Bounded: an unthrottled append loop grows the relation by
				// millions of rows and the builds never finish. 2000 appends
				// racing 8 builds is plenty for the race detector.
				for i := 0; i < 2000; i++ {
					select {
					case <-stop:
						return
					default:
					}
					row := append(relation.Tuple(nil), template...)
					r.MustAppend(row)
					runtime.Gosched()
				}
			}()

			for i := 0; i < 8; i++ {
				c := NewCategorizer(stats, Options{M: 20, X: 0.1})
				tree, err := c.Categorize(r, nil)
				if err != nil {
					t.Fatalf("build %d: %v", i, err)
				}
				if err := tree.Validate(); err != nil {
					t.Fatalf("build %d: %v", i, err)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
