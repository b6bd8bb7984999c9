package repro_test

// integration_test.go exercises the whole public surface together — every
// feature enabled at once — the way a demanding consumer would.

import (
	"strings"
	"testing"

	"repro"
)

// TestFullPipelineAllFeatures runs correlations + parallel search + bounded
// fan-out + ranking + refinement end to end and checks the invariants hold
// at each step.
func TestFullPipelineAllFeatures(t *testing.T) {
	rel := repro.DemoDataset(8000, 11)
	sys, err := repro.NewSystem(rel, repro.Config{
		WorkloadSQL:  repro.DemoWorkloadSQL(5000, 12),
		Intervals:    repro.DemoIntervals(),
		Correlations: true,
		Options: repro.Options{
			M:             15,
			MaxCategories: 6,
			AutoBuckets:   true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	res, err := sys.Query(homesSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("empty result")
	}

	tree, err := res.Categorize()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}

	// Fan-out bound: no node exceeds 6 children on categorical levels.
	tree.Root.Walk(func(n *repro.Node, _ int) bool {
		if len(n.Children) > 0 && n.Children[0].Label.Kind == repro.LabelValue {
			if len(n.Children) > 6 {
				t.Errorf("node %q has %d children; MaxCategories=6", n.Label, len(n.Children))
			}
		}
		return true
	})

	// Ranking preserves membership and validity.
	repro.RankTree(sys.Ranker(), tree)
	if err := tree.Validate(); err != nil {
		t.Fatalf("ranked tree invalid: %v", err)
	}

	// Refinement: drill into the first two levels and re-execute.
	node := tree.Root
	path := []int{}
	for depth := 0; depth < 2 && !node.IsLeaf(); depth++ {
		path = append(path, 0)
		node = node.Children[0]
	}
	refined, err := tree.RefineQuery(res.Query, path)
	if err != nil {
		t.Fatal(err)
	}
	res2 := sys.QueryParsed(refined)
	if res2.Len() != node.Size() {
		t.Fatalf("refined result %d != node size %d (sql: %s)", res2.Len(), node.Size(), refined)
	}

	// The refined result categorizes again (different level attributes are
	// fine; validity is the contract).
	tree2, err := res2.Categorize()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree2.Validate(); err != nil {
		t.Fatal(err)
	}

	// Simulated exploration over the refined tree finds everything.
	intent := &repro.Intent{Query: refined}
	out := repro.SimulateAll(tree2, intent)
	if out.RelevantFound != out.RelevantTotal || out.RelevantTotal != res2.Len() {
		t.Fatalf("refined exploration found %d of %d (result %d)",
			out.RelevantFound, out.RelevantTotal, res2.Len())
	}
}

// TestTechniqueOrderingUnderAllFeatures confirms the headline comparison
// survives with every feature on: estimated cost-based ≤ no-cost.
func TestTechniqueOrderingUnderAllFeatures(t *testing.T) {
	rel := repro.DemoDataset(6000, 21)
	sys, err := repro.NewSystem(rel, repro.Config{
		WorkloadSQL:  repro.DemoWorkloadSQL(4000, 22),
		Intervals:    repro.DemoIntervals(),
		Correlations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(homesSQL)
	if err != nil {
		t.Fatal(err)
	}
	opts := repro.Options{M: 20}
	cb, err := res.CategorizeWith(repro.CostBased, opts)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := res.CategorizeWith(repro.NoCost, opts)
	if err != nil {
		t.Fatal(err)
	}
	if repro.EstimateCostAll(cb) > repro.EstimateCostAll(nc)+1e-9 {
		t.Fatalf("cost-based (%.1f) worse than no-cost (%.1f) with all features on",
			repro.EstimateCostAll(cb), repro.EstimateCostAll(nc))
	}
}

// TestAdaptivePersonalizeCompose: an adaptive system layered on a
// personalized one keeps learning.
func TestAdaptivePersonalizeCompose(t *testing.T) {
	rel := repro.DemoDataset(2000, 31)
	base, err := repro.NewSystem(rel, repro.Config{
		WorkloadSQL: repro.DemoWorkloadSQL(1500, 32),
		Intervals:   repro.DemoIntervals(),
	})
	if err != nil {
		t.Fatal(err)
	}
	personal, err := base.Personalize([]string{
		"SELECT * FROM ListProperty WHERE yearbuilt <= 1950",
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := personal.Adaptive()
	if err != nil {
		t.Fatal(err)
	}
	before := adaptive.WorkloadSize()
	if _, _, err := adaptive.Explore(homesSQL, repro.CostBased, repro.Options{M: 25}, true); err != nil {
		t.Fatal(err)
	}
	if adaptive.WorkloadSize() != before+1 {
		t.Fatal("personalized adaptive system did not learn")
	}
}

// TestDeterminismAcrossRuns: identical seeds produce identical trees, SQL
// renderings and costs — the reproducibility contract behind every number in
// EXPERIMENTS.md.
func TestDeterminismAcrossRuns(t *testing.T) {
	build := func() (string, float64) {
		rel := repro.DemoDataset(3000, 41)
		sys, err := repro.NewSystem(rel, repro.Config{
			WorkloadSQL: repro.DemoWorkloadSQL(2000, 42),
			Intervals:   repro.DemoIntervals(),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Query(homesSQL)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := res.Categorize()
		if err != nil {
			t.Fatal(err)
		}
		return repro.RenderTree(tree, repro.RenderOptions{}), repro.EstimateCostAll(tree)
	}
	r1, c1 := build()
	r2, c2 := build()
	if r1 != r2 || c1 != c2 {
		i := 0
		for i < len(r1) && i < len(r2) && r1[i] == r2[i] {
			i++
		}
		lo := i - 40
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("non-deterministic output near %q vs %q (costs %v, %v)",
			r1[lo:min(i+40, len(r1))], r2[lo:min(i+40, len(r2))], c1, c2)
	}
	if !strings.HasPrefix(r1, "ALL (") {
		t.Fatal("render sanity check failed")
	}
}
