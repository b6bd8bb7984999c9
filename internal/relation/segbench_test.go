package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// segBenchSchema is the lean shape the append-maintenance benchmarks run
// on: a monotone timestamp, a uniform noise attribute, and a categorical
// whose values arrive in runs of 4096 rows (the realistic ingest pattern).
func segBenchSchema() *Schema {
	return MustSchema(
		Attribute{Name: "ts", Type: Numeric},
		Attribute{Name: "noise", Type: Numeric},
		Attribute{Name: "kind", Type: Categorical},
	)
}

func segBenchTuple(rng *rand.Rand, i int) Tuple {
	return Tuple{
		NumberValue(float64(i)),
		NumberValue(rng.Float64()),
		StringValue(fmt.Sprintf("k%d", (i/4096)%16)),
	}
}

// segBenchRelation builds an n-row relation on the benchmark shape.
func segBenchRelation(tb testing.TB, n int) *Relation {
	tb.Helper()
	r := New("events", segBenchSchema())
	rng := rand.New(rand.NewSource(42))
	r.Grow(n)
	for i := 0; i < n; i++ {
		r.MustAppend(segBenchTuple(rng, i))
	}
	return r
}

// BenchmarkSegmentAppendSteady measures the steady-state per-row Append cost
// on relations preloaded to different sizes with conjunct bitmaps live. An
// append encodes the row into the columns' spare capacity and raises the
// row count, so the per-row cost must be independent of the total row
// count — this is the number the drop-everything design made O(rows) to
// recover.
func BenchmarkSegmentAppendSteady(b *testing.B) {
	for _, n := range []int{10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("preload=%d", n), func(b *testing.B) {
			r := segBenchRelation(b, n)
			if len(r.Select(segBenchSelective(n))) == 0 {
				b.Fatal("empty warmup selection")
			}
			rng := rand.New(rand.NewSource(43))
			// Reserve capacity for the appends under measurement: slice
			// growth is amortized O(1) regardless of size, and folding a
			// realloc copy into a small b.N run would misread as per-row
			// cost scaling with the preload.
			r.Grow(n + b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MustAppend(segBenchTuple(rng, n+i))
			}
		})
	}
}

// segBenchSelective targets the newest rows carrying the newest kind, so
// the warmup builds one cached bitmap of each conjunct kind.
func segBenchSelective(n int) Predicate {
	return NewAnd(
		NewClosedRange("ts", float64(n-20000), float64(n)),
		NewIn("kind", fmt.Sprintf("k%d", ((n-1)/4096)%16)),
	)
}

// BenchmarkSegmentAppendThenRead is the headline incremental-maintenance
// number: one appended row followed by a warm multi-conjunct Select on a
// preloaded 100k relation. The cached conjunct bitmaps extend by exactly
// the appended suffix.
func BenchmarkSegmentAppendThenRead(b *testing.B) {
	const n = 100000
	b.Run("rows=100000/mode=incremental", func(b *testing.B) {
		r := segBenchRelation(b, n)
		// Narrower than segBenchSelective so the measured delta is the
		// maintenance work, not materializing a large result slice.
		pred := NewAnd(
			NewClosedRange("ts", float64(n-2000), float64(n)),
			NewClosedRange("noise", 0, 1),
		)
		if len(r.Select(pred)) == 0 {
			b.Fatal("empty warmup selection")
		}
		rng := rand.New(rand.NewSource(44))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.MustAppend(segBenchTuple(rng, n+i))
			if len(r.Select(pred)) == 0 {
				b.Fatal("empty selection")
			}
		}
	})
}
