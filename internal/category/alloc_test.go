package category

import (
	"testing"

	"repro/internal/relation"
)

// allocLC builds a warmed levelContext over r: level caches initialized —
// the state every partitioner sees inside the level loop.
func allocLC(t *testing.T, r *relation.Relation) *levelContext {
	t.Helper()
	stats := testStats(t)
	lc := &levelContext{r: r, stats: stats, est: &Estimator{Stats: stats}, opts: Options{}.withDefaults()}
	lc.resetLevel()
	return lc
}

// TestCategoricalPlanAllocs pins the counting-sort partitioner's allocation
// profile: one arena per node plus the plan skeleton, independent of the
// result size. The seed's map-of-slices bucketing allocated per distinct
// value per node (hundreds of allocations on this input).
func TestCategoricalPlanAllocs(t *testing.T) {
	r := testRelation(2000)
	lc := allocLC(t, r)
	root := &Node{Label: Label{Kind: LabelAll}, Tset: r.Select(nil), P: 1, Pw: 1}
	s := []*Node{root}

	allocs := testing.AllocsPerRun(20, func() {
		if pl := lc.categoricalPlan("neighborhood", s); pl == nil {
			t.Fatal("categoricalPlan returned nil")
		}
	})
	// Plan skeleton + per-node tset arena + spec slices; generous headroom
	// over the measured count (~10) but far below the seed's per-value cost.
	if allocs > 25 {
		t.Errorf("categoricalPlan allocations = %.0f, want <= 25", allocs)
	}
}

// TestNumericPlanAllocs pins the bucket partitioner's allocation profile
// with a warm per-level sort cache — the state inside bestPlan's fan-out,
// where every candidate evaluation of the same (node, attribute) pair reuses
// one cached permutation. Only the plan skeleton and the idx copy handed to
// the tree may allocate.
func TestNumericPlanAllocs(t *testing.T) {
	r := testRelation(2000)
	lc := allocLC(t, r)
	root := &Node{Label: Label{Kind: LabelAll}, Tset: r.Select(nil), P: 1, Pw: 1}
	s := []*Node{root}

	// Prime the (node, price) permutation once, as the first candidate
	// evaluation of a level does.
	if pl := lc.numericPlan("price", s); pl == nil {
		t.Fatal("numericPlan returned nil")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if pl := lc.numericPlan("price", s); pl == nil {
			t.Fatal("numericPlan returned nil")
		}
	})
	// Plan skeleton + one idx copy + spec slice per node; the seed re-sorted
	// the tuple-set on every evaluation (O(n) allocations via sort.Slice's
	// closure machinery plus per-bucket slices).
	if allocs > 25 {
		t.Errorf("numericPlan allocations = %.0f, want <= 25", allocs)
	}
}

// TestSortByValueAllocs pins the pair-sort's transient buffer pooling: only
// the returned rows/vals slices may allocate.
func TestSortByValueAllocs(t *testing.T) {
	r := testRelation(2000)
	col, err := r.NumColumn("price")
	if err != nil {
		t.Fatal(err)
	}
	tset := r.Select(nil)
	allocs := testing.AllocsPerRun(20, func() {
		rows, vals := relation.SortByValue(col, tset)
		if len(rows) != len(tset) || len(vals) != len(tset) {
			t.Fatal("bad SortByValue result")
		}
	})
	if allocs > 4 {
		t.Errorf("SortByValue allocations = %.0f, want <= 4", allocs)
	}
}
