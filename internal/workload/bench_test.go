package workload

import (
	"fmt"
	"testing"
)

func benchWorkload(b *testing.B, n int) *Workload {
	b.Helper()
	queries := make([]string, n)
	for i := range queries {
		queries[i] = fmt.Sprintf(
			"SELECT * FROM T WHERE neighborhood IN ('Hood %d') AND price BETWEEN %d AND %d",
			i%40, 100000+(i%20)*25000, 200000+(i%20)*25000)
	}
	w, err := ParseStrings(queries)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkPreprocess measures count-table construction per workload size.
func BenchmarkPreprocess(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			w := benchWorkload(b, n)
			cfg := Config{Intervals: map[string]float64{"price": 5000}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Preprocess(w, cfg)
			}
		})
	}
}

// BenchmarkNOverlapRange measures the binary-search overlap counter.
func BenchmarkNOverlapRange(b *testing.B) {
	w := benchWorkload(b, 10000)
	s := Preprocess(w, Config{Intervals: map[string]float64{"price": 5000}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NOverlapRange("price", 150000, 400000)
	}
}

// BenchmarkAddQuery measures the incremental (online-learning) update. The
// stats are rebuilt periodically: the range insert costs O(√n) amortized,
// so an unbounded accumulation across b.N iterations would measure growth,
// not the per-update cost at a realistic workload size.
func BenchmarkAddQuery(b *testing.B) {
	w := benchWorkload(b, 1000)
	cfg := Config{Intervals: map[string]float64{"price": 5000}}
	s := Preprocess(w, cfg)
	q := w.Queries[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%5000 == 4999 {
			b.StopTimer()
			s = Preprocess(w, cfg)
			b.StartTimer()
		}
		s.AddQuery(q, cfg)
	}
}
