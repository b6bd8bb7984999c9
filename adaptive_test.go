package repro_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro"
)

func adaptiveFixture(t *testing.T) *repro.AdaptiveSystem {
	t.Helper()
	rel := repro.DemoDataset(3000, 1)
	sys, err := repro.NewSystem(rel, repro.Config{
		WorkloadSQL: repro.DemoWorkloadSQL(2000, 2),
		Intervals:   repro.DemoIntervals(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Adaptive()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAdaptiveRequiresRawWorkload(t *testing.T) {
	rel := repro.DemoDataset(100, 1)
	base, err := repro.NewSystem(rel, repro.Config{
		WorkloadSQL: repro.DemoWorkloadSQL(100, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	var stats *repro.WorkloadStats
	stats = base.Stats()
	statsOnly, err := repro.NewSystem(rel, repro.Config{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := statsOnly.Adaptive(); err == nil {
		t.Fatal("stats-only system should refuse Adaptive")
	}
}

func TestAdaptiveExploreAndLearn(t *testing.T) {
	a := adaptiveFixture(t)
	before := a.WorkloadSize()
	tree, n, err := a.Explore(homesSQL, repro.CostBased, repro.Options{M: 20}, true)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if n == 0 || tree == nil {
		t.Fatal("empty exploration")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.WorkloadSize() != before+1 || a.Learned() != 1 {
		t.Fatalf("learning not recorded: size %d->%d learned %d", before, a.WorkloadSize(), a.Learned())
	}
	// Without learn the workload stays put.
	if _, _, err := a.Explore(homesSQL, repro.CostBased, repro.Options{M: 20}, false); err != nil {
		t.Fatal(err)
	}
	if a.WorkloadSize() != before+1 {
		t.Fatal("non-learning exploration changed the workload")
	}
}

// TestLearnOtherTablePublishesNothing: a query naming another table is not
// folded into the statistics, so learning it must publish no snapshot: the
// generation, the learned count and the workload size stay put, and cached
// trees stay current.
func TestLearnOtherTablePublishesNothing(t *testing.T) {
	a := cachedAdaptiveFixture(t, 2000, 1500)
	ctx := context.Background()
	if _, _, _, err := a.System().Serve(ctx, homesSQL, repro.CostBased, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	gen, learned, size := a.Generation(), a.Learned(), a.WorkloadSize()
	if err := a.Learn("SELECT * FROM Other WHERE price < 5"); err != nil {
		t.Fatal(err)
	}
	if a.Generation() != gen || a.Learned() != learned || a.WorkloadSize() != size {
		t.Fatalf("foreign-table learn moved (generation, learned, workload) from (%d, %d, %d) to (%d, %d, %d)",
			gen, learned, size, a.Generation(), a.Learned(), a.WorkloadSize())
	}
	if _, _, hit, err := a.System().Serve(ctx, homesSQL, repro.CostBased, repro.Options{}); err != nil || !hit {
		t.Fatalf("serve after a foreign-table learn: hit=%v err=%v, want a hit", hit, err)
	}

	// A mixed batch publishes once and counts only the query it folded in.
	if err := a.LearnBatch([]string{"SELECT * FROM Other WHERE price < 5", homesSQL}); err != nil {
		t.Fatal(err)
	}
	if a.Generation() != gen+1 || a.Learned() != learned+1 || a.WorkloadSize() != size+1 {
		t.Fatalf("mixed batch moved (generation, learned, workload) from (%d, %d, %d) to (%d, %d, %d), want +1 each",
			gen, learned, size, a.Generation(), a.Learned(), a.WorkloadSize())
	}
}

func TestAdaptiveExploreErrors(t *testing.T) {
	a := adaptiveFixture(t)
	if _, _, err := a.Explore("DROP TABLE x", repro.CostBased, repro.Options{}, true); err == nil {
		t.Fatal("bad SQL should error")
	}
	if err := a.Learn("still not sql"); err == nil {
		t.Fatal("bad SQL should error in Learn")
	}
	if a.Learned() != 0 {
		t.Fatal("failed learns must not count")
	}
}

// TestAdaptiveLearningShiftsTrees: hammering the statistics with
// year-built-focused queries must eventually pull yearbuilt into the tree.
func TestAdaptiveLearningShiftsTrees(t *testing.T) {
	a := adaptiveFixture(t)
	treeBefore, _, err := a.Explore(homesSQL, repro.CostBased, repro.Options{M: 20}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, attr := range treeBefore.LevelAttrs {
		if strings.EqualFold(attr, "yearbuilt") {
			t.Skip("yearbuilt already a level before learning")
		}
	}
	for i := 0; i < 3000; i++ {
		if err := a.Learn(fmt.Sprintf(
			"SELECT * FROM ListProperty WHERE yearbuilt BETWEEN %d AND %d", 1900+5*(i%10), 1950)); err != nil {
			t.Fatal(err)
		}
	}
	treeAfter, _, err := a.Explore(homesSQL, repro.CostBased, repro.Options{M: 20}, false)
	if err != nil {
		t.Fatal(err)
	}
	foundYear := false
	for _, attr := range treeAfter.LevelAttrs {
		if strings.EqualFold(attr, "yearbuilt") {
			foundYear = true
		}
	}
	if !foundYear {
		t.Fatalf("after 3000 year-built queries the tree still ignores yearbuilt: %v", treeAfter.LevelAttrs)
	}
}

// TestAdaptiveConcurrent exercises simultaneous explores and learns; run
// with -race.
func TestAdaptiveConcurrent(t *testing.T) {
	a := adaptiveFixture(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, _, err := a.Explore(homesSQL, repro.CostBased, repro.Options{M: 30}, g%2 == 0); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := a.Learn("SELECT * FROM ListProperty WHERE bathcount >= 2"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if a.Learned() != 16+40 {
		t.Fatalf("learned = %d; want 56", a.Learned())
	}
}

func TestAdaptiveSnapshot(t *testing.T) {
	a := adaptiveFixture(t)
	var n int
	a.Snapshot(func(s *repro.System) { n = s.Relation().Len() })
	if n != 3000 {
		t.Fatalf("snapshot saw %d rows", n)
	}
}
