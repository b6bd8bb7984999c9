package relation

import (
	"fmt"
	"testing"
)

// BenchmarkBuildColumns measures the columnar projection build: one
// dictionary-encoded categorical column plus two dense numeric columns.
func BenchmarkBuildColumns(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			r := relationOfSize(n, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.dropColumns()
				if err := r.BuildColumns(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSortByValue measures the pair-sort that backs every numeric
// partitioning: project, pack, pdqsort, unpack.
func BenchmarkSortByValue(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			r := relationOfSize(n, 7)
			col, err := r.NumColumn("price")
			if err != nil {
				b.Fatal(err)
			}
			tset := r.Select(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, _ := SortByValue(col, tset)
				if len(rows) != n {
					b.Fatal("bad sort")
				}
			}
		})
	}
}

// BenchmarkCatColumnLookup measures the dictionary binary search used to
// rank presentation-ordered values into codes.
func BenchmarkCatColumnLookup(b *testing.B) {
	r := relationOfSize(20000, 7)
	col, err := r.CatColumn("neighborhood")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := col.Code("Seattle, WA"); !ok {
			b.Fatal("missing value")
		}
	}
}

// selectBenchPred is the multi-conjunct selection the BENCH_select.json
// record is built around: a categorical IN plus two numeric ranges over the
// 20k-row home-listing shape.
func selectBenchPred() Predicate {
	return NewAnd(
		NewIn("neighborhood", "Seattle, WA", "Bellevue, WA"),
		NewClosedRange("price", 250000, 350000),
		NewClosedRange("bedrooms", 2, 5),
	)
}

// BenchmarkSelectQuery measures Select on an unindexed relation with a
// repeated multi-conjunct predicate (the serving path's steady state).
func BenchmarkSelectQuery(b *testing.B) {
	b.Run("rows=20000/conjuncts=3", func(b *testing.B) {
		r := relationOfSize(20000, 7)
		pred := selectBenchPred()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(r.Select(pred)) == 0 {
				b.Fatal("empty selection")
			}
		}
	})
	b.Run("rows=20000/conjuncts=1", func(b *testing.B) {
		r := relationOfSize(20000, 7)
		pred := NewIn("neighborhood", "Seattle, WA", "Bellevue, WA")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(r.Select(pred)) == 0 {
				b.Fatal("empty selection")
			}
		}
	})
}

// BenchmarkSelectQueryCold measures the per-unique-query cost: the conjunct
// bitmap cache is dropped every iteration, so every conjunct is evaluated
// from scratch (columnar projections stay warm, as they do in serving).
func BenchmarkSelectQueryCold(b *testing.B) {
	b.Run("rows=20000/conjuncts=3", func(b *testing.B) {
		r := relationOfSize(20000, 7)
		pred := selectBenchPred()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.dropConjuncts()
			if len(r.Select(pred)) == 0 {
				b.Fatal("empty selection")
			}
		}
	})
}

// dropColumns invalidates all cached projections: the drop-everything
// baseline of the build and append benchmarks (Append never drops them).
func (r *Relation) dropColumns() {
	r.cols.mu.Lock()
	r.cols.cat = nil
	r.cols.num = nil
	r.cols.sorted = nil
	r.cols.identity = nil
	r.cols.idBacking = nil
	r.cols.mu.Unlock()
}

// dropConjuncts empties the conjunct-bitmap cache: the cold-select and
// drop-everything baselines of the benchmarks (stale entries extend
// instead).
func (r *Relation) dropConjuncts() {
	r.vsel.mu.Lock()
	if r.vsel.ll != nil {
		r.vsel.ll.Init()
		clear(r.vsel.table)
	}
	r.vsel.mu.Unlock()
}
