package relation

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// segBenchSchema is the lean shape the storage benchmarks run on: a monotone
// timestamp (zone maps prune it hard), a uniform noise attribute (zone maps
// cannot prune it at all), and a categorical whose values arrive in runs
// (segment-local value sets stay small, the realistic ingest pattern).
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

// segBenchRelation builds an n-row relation on the storage-benchmark shape.
// segRows 0 keeps DefaultSegmentRows; segRows > n yields a tail-only
// relation — no sealed segments, no zone maps — which is the unpruned
// baseline with byte-identical data and code paths.
func segBenchRelation(tb testing.TB, n, segRows int) *Relation {
	tb.Helper()
	r := New("events", segBenchSchema())
	if segRows > 0 {
		if err := r.SetSegmentRows(segRows); err != nil {
			tb.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	r.Grow(n)
	for i := 0; i < n; i++ {
		r.MustAppend(segBenchTuple(rng, i))
	}
	return r
}

// BenchmarkSegmentAppendSteady measures the steady-state per-row Append cost
// on relations preloaded to different sizes with columns and conjunct
// bitmaps live. Sealing only touches the segment directory, so the
// per-row cost must be independent of the total row count — this is the
// number the drop-everything design made O(rows) to recover.
func BenchmarkSegmentAppendSteady(b *testing.B) {
	for _, n := range []int{10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("preload=%d", n), func(b *testing.B) {
			r := segBenchRelation(b, n, 0)
			if err := r.BuildColumns(); err != nil {
				b.Fatal(err)
			}
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

// segBenchSelective targets the newest rows carrying the newest kind: the ts
// range rules out every sealed segment below the tail window (numeric zone
// maps), and the kind IN rules out every segment whose value run doesn't
// include the newest cluster (categorical zone maps) — both conjunct kinds
// prune.
func segBenchSelective(n int) Predicate {
	return NewAnd(
		NewClosedRange("ts", float64(n-20000), float64(n)),
		NewIn("kind", fmt.Sprintf("k%d", ((n-1)/4096)%16)),
	)
}

// segBenchUnselective matches every row: no zone map can rule any segment
// out, so the pruned path pays the zone checks and must stay within noise of
// the unpruned scan.
func segBenchUnselective(n int) Predicate {
	return NewAnd(
		NewClosedRange("ts", 0, float64(n)),
		NewClosedRange("noise", -1, 2),
	)
}

// BenchmarkSegmentAppendThenRead is the headline incremental-maintenance
// number: one appended row followed by a warm multi-conjunct Select on a
// preloaded 100k relation. mode=incremental is the live path — projections
// and conjunct bitmaps extend by exactly the appended suffix.
// mode=dropEverything replays the pre-segment design by invalidating both
// after the append, so the Select pays full O(rows) rebuilds.
func BenchmarkSegmentAppendThenRead(b *testing.B) {
	const n = 100000
	for _, mode := range []string{"incremental", "dropEverything"} {
		b.Run("rows=100000/mode="+mode, func(b *testing.B) {
			r := segBenchRelation(b, n, 0)
			if err := r.BuildColumns(); err != nil {
				b.Fatal(err)
			}
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
				if mode == "dropEverything" {
					r.dropColumns()
					r.dropConjuncts()
				}
				if len(r.Select(pred)) == 0 {
					b.Fatal("empty selection")
				}
			}
		})
	}
}

// The paper-scale zone benchmark relations are built once per binary: the
// pruned relation seals 1.7M/DefaultSegmentRows segments with zone maps, the
// unpruned one holds every row in the tail (segRows > n) so the identical
// select path runs with nothing to prune against.
var zoneBench struct {
	once     sync.Once
	pruned   *Relation
	unpruned *Relation
}

const zoneBenchRows = 1700000

func zoneBenchRelations(b *testing.B) (pruned, unpruned *Relation) {
	zoneBench.once.Do(func() {
		zoneBench.pruned = segBenchRelation(b, zoneBenchRows, 0)
		zoneBench.unpruned = segBenchRelation(b, zoneBenchRows, zoneBenchRows+1)
	})
	if zoneBench.pruned == nil || zoneBench.unpruned == nil {
		b.Fatal("zone benchmark relations failed to build")
	}
	return zoneBench.pruned, zoneBench.unpruned
}

// BenchmarkSegmentZoneSelect measures cold conjunct-bitmap builds (the cache
// is dropped every iteration) at paper scale, with zone-map pruning live
// (zones=pruned) and structurally disabled (zones=unpruned, tail-only
// storage of the same rows). The selective predicate covers the newest ~5
// segments, so pruning skips ~99% of the relation; the unselective predicate
// covers everything, pinning the zone-check overhead.
func BenchmarkSegmentZoneSelect(b *testing.B) {
	pruned, unpruned := zoneBenchRelations(b)
	cases := []struct {
		name string
		rel  *Relation
		pred Predicate
		want int
	}{
		// 160 rows: the ts window [n-20000, n) intersected with the single
		// 4096-row segment whose kind cluster is the newest one.
		{"rows=1700000/pred=selective/zones=pruned", pruned, segBenchSelective(zoneBenchRows), 160},
		{"rows=1700000/pred=selective/zones=unpruned", unpruned, segBenchSelective(zoneBenchRows), 160},
		{"rows=1700000/pred=unselective/zones=pruned", pruned, segBenchUnselective(zoneBenchRows), zoneBenchRows},
		{"rows=1700000/pred=unselective/zones=unpruned", unpruned, segBenchUnselective(zoneBenchRows), zoneBenchRows},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.rel.dropConjuncts()
				if got := len(c.rel.Select(c.pred)); got != c.want {
					b.Fatalf("selected %d rows, want %d", got, c.want)
				}
			}
		})
	}
}
