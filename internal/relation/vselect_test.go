package relation

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// relationOfSize builds an n-row relation on the home-listing shape from a
// seeded generator.
func relationOfSize(n int, seed int64) *Relation {
	rng := rand.New(rand.NewSource(seed))
	r := New("homes", MustSchema(
		Attribute{Name: "neighborhood", Type: Categorical},
		Attribute{Name: "price", Type: Numeric},
		Attribute{Name: "bedrooms", Type: Numeric},
	))
	hoods := []string{"Bellevue, WA", "Redmond, WA", "Seattle, WA", "Issaquah, WA"}
	for i := 0; i < n; i++ {
		r.MustAppend(Tuple{
			StringValue(hoods[rng.Intn(len(hoods))]),
			NumberValue(float64(200000 + rng.Intn(50)*5000)),
			NumberValue(float64(1 + rng.Intn(6))),
		})
	}
	return r
}

// selectReference is the trusted oracle: the plain tuple-at-a-time scan with
// no columns and no bitmaps.
func selectReference(r *Relation, pred Predicate) []int {
	out := []int{}
	for i := 0; i < r.Len(); i++ {
		if pred.Matches(r.Schema(), r.Row(i)) {
			out = append(out, i)
		}
	}
	return out
}

func sameRows(t *testing.T, got, want []int, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d\ngot:  %v\nwant: %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func TestBitmapBasics(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		b := NewBitmap(n)
		if b.Count() != 0 || b.Len() != n {
			t.Fatalf("n=%d: fresh bitmap count=%d len=%d", n, b.Count(), b.Len())
		}
		for i := 0; i < n; i++ {
			b.Set(i)
		}
		if b.Count() != n {
			t.Fatalf("n=%d: all-set count=%d", n, b.Count())
		}
		rows := b.Rows()
		if len(rows) != n {
			t.Fatalf("n=%d: Rows len=%d", n, len(rows))
		}
		for i, v := range rows {
			if v != i {
				t.Fatalf("n=%d: Rows[%d]=%d", n, i, v)
			}
		}
	}
	b := NewBitmap(200)
	set := []int{0, 1, 63, 64, 127, 128, 199}
	for _, i := range set {
		b.Set(i)
	}
	for _, i := range set {
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(2) || b.Get(150) {
		t.Fatal("unset bit reads as set")
	}
	if got := b.Rows(); !reflect.DeepEqual(got, set) {
		t.Fatalf("Rows = %v, want %v", got, set)
	}
	o := NewBitmap(200)
	o.Set(63)
	o.Set(64)
	o.Set(100)
	c := b.Clone()
	if n := c.And(o); n != 2 {
		t.Fatalf("And count = %d, want 2", n)
	}
	if got := c.Rows(); !reflect.DeepEqual(got, []int{63, 64}) {
		t.Fatalf("And rows = %v", got)
	}
	// Clone independence.
	if b.Count() != 7 {
		t.Fatalf("source bitmap mutated by clone ops: count=%d", b.Count())
	}
}

// TestVectorSelectMatchesReference drives the vectorized engine across the
// conjunct shapes and checks exact row-list equality with the naive scan,
// twice per predicate so the warm (conjunct-cache hit) path is verified too.
func TestVectorSelectMatchesReference(t *testing.T) {
	r := relationOfSize(700, 11)
	preds := []Predicate{
		NewIn("neighborhood", "Seattle, WA"),
		NewIn("neighborhood", "Seattle, WA", "Bellevue, WA", "Nowhere"),
		NewIn("NEIGHBORHOOD", "Issaquah, WA"), // case-insensitive attr
		NewIn("neighborhood"),                 // empty IN list
		NewIn("missing", "x"),                 // unknown attribute
		NewIn("price", "200000"),              // type mismatch
		NewRange("price", 210000, 300000),
		NewClosedRange("price", 210000, 300000),
		NewRange("price", math.Inf(-1), 250000),
		NewClosedRange("price", 250000, math.Inf(1)),
		NewClosedRange("price", 300000, 200000), // empty interval
		NewClosedRange("bedrooms", 2, 4),
		NewRange("missing", 0, 1),
		NewRange("neighborhood", 0, 1), // type mismatch
		NewAnd(NewIn("neighborhood", "Seattle, WA", "Redmond, WA"), NewClosedRange("price", 220000, 340000)),
		NewAnd(NewIn("neighborhood", "Seattle, WA"), NewClosedRange("price", 220000, 340000), NewClosedRange("bedrooms", 1, 3)),
		NewAnd(), // empty conjunction = TRUE
		NewAnd(True{}, NewClosedRange("bedrooms", 2, 2)),
		NewAnd(NewRange("price", 200000, 260000), NewRange("price", 240000, 320000)), // same attr twice
	}
	for _, pred := range preds {
		want := selectReference(r, pred)
		for pass := 0; pass < 2; pass++ {
			sameRows(t, r.vectorSelect(pred), want, pred.String())
			sameRows(t, r.Select(pred), want, "Select: "+pred.String())
		}
	}
	// True alone goes through Select's nil-free path too.
	sameRows(t, r.Select(True{}), selectReference(r, True{}), "TRUE")
}

// TestConjunctCacheHitMissEviction exercises the bounded LRU: repeated
// conjuncts hit, distinct conjuncts past the cap evict coldest-first, and
// the counters track it all.
func TestConjunctCacheHitMissEviction(t *testing.T) {
	r := relationOfSize(300, 5)
	pred := NewAnd(NewIn("neighborhood", "Seattle, WA"), NewClosedRange("price", 210000, 320000))
	want := selectReference(r, pred)

	sameRows(t, r.Select(pred), want, "cold")
	s := r.SelectStats()
	if s.ConjunctMisses != 2 || s.ConjunctHits != 0 || s.ConjunctEntries != 2 {
		t.Fatalf("after cold select: %+v", s)
	}
	sameRows(t, r.Select(pred), want, "warm")
	s = r.SelectStats()
	if s.ConjunctHits != 2 || s.ConjunctMisses != 2 {
		t.Fatalf("after warm select: %+v", s)
	}
	// A spelling-variant of the same conjuncts must hit, not miss: the cache
	// keys on canonical signatures.
	variant := NewAnd(NewClosedRange("PRICE", 210000, 320000), NewIn("NeighborHood", "Seattle, WA", "Seattle, WA"))
	sameRows(t, r.Select(variant), want, "variant")
	s = r.SelectStats()
	if s.ConjunctHits != 4 || s.ConjunctMisses != 2 {
		t.Fatalf("spelling variant missed the cache: %+v", s)
	}

	// Flood with distinct range conjuncts to exceed the cap.
	for i := 0; i <= maxConjunctBitmaps; i++ {
		r.Select(NewClosedRange("price", float64(i), float64(i+1)))
	}
	s = r.SelectStats()
	if s.ConjunctEntries != maxConjunctBitmaps {
		t.Fatalf("cache occupancy %d, want cap %d", s.ConjunctEntries, maxConjunctBitmaps)
	}
	// The original conjuncts were the coldest; they must have been evicted,
	// so re-selecting misses and recomputes — and still answers correctly.
	missesBefore := s.ConjunctMisses
	sameRows(t, r.Select(pred), want, "post-eviction")
	if s = r.SelectStats(); s.ConjunctMisses != missesBefore+2 {
		t.Fatalf("evicted conjuncts did not miss: %+v", s)
	}
}

// TestAppendExtendsEverything is the incremental-maintenance regression
// test (DESIGN.md §14): Append must bump the data generation but must NOT
// drop projections, the identity list, or cached conjunct bitmaps
// — every derived artifact extends over just the appended rows on its next
// read, and results stay exactly correct.
func TestAppendExtendsEverything(t *testing.T) {
	r := relationOfSize(120, 9)
	pred := NewAnd(NewIn("neighborhood", "Bellevue, WA"), NewClosedRange("price", 200000, 400000))
	id := r.Select(nil)
	if len(id) != 120 {
		t.Fatalf("identity length %d", len(id))
	}
	if &id[0] != &r.Select(nil)[0] {
		t.Fatal("identity list not cached between calls")
	}
	r.Select(pred) // populate the conjunct cache
	entries := r.SelectStats().ConjunctEntries
	if entries == 0 {
		t.Fatal("conjunct cache empty after select")
	}
	gen := r.DataGeneration()

	r.MustAppend(Tuple{StringValue("Bellevue, WA"), NumberValue(250000), NumberValue(3)})

	if r.DataGeneration() != gen+1 {
		t.Fatalf("data generation %d, want %d", r.DataGeneration(), gen+1)
	}
	r.cols.mu.Lock()
	cached := r.cols.cat["neighborhood"]
	r.cols.mu.Unlock()
	if cached == nil {
		t.Fatal("Append must not drop columnar projections")
	}
	col, err := r.CatColumn("neighborhood")
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Codes) != 121 {
		t.Fatalf("projection not extended over the appended row: %d codes", len(col.Codes))
	}
	if s := r.SelectStats(); s.ConjunctEntries != entries {
		t.Fatalf("Append must keep conjunct bitmaps for extension: %d entries, want %d", s.ConjunctEntries, entries)
	}
	id2 := r.Select(nil)
	if len(id2) != 121 || id2[120] != 120 {
		t.Fatalf("identity not extended after Append: len=%d", len(id2))
	}
	if &id[0] != &id2[0] {
		t.Fatal("identity extension should reuse the backing array in place")
	}
	// Correctness after the mutation: the cached conjuncts must extend (not
	// rebuild, not miss) and cover the appended matching row.
	want := selectReference(r, pred)
	if want[len(want)-1] != 120 {
		t.Fatal("test setup: appended row should match the predicate")
	}
	ext := r.SelectStats().ConjunctExtended
	sameRows(t, r.Select(pred), want, "post-append")
	if s := r.SelectStats(); s.ConjunctExtended != ext+2 {
		t.Fatalf("stale conjuncts should extend, got %d extensions (was %d): %+v", s.ConjunctExtended, ext, s)
	}
	sameRows(t, r.Select(pred), want, "post-append warm")
}

// TestStaleSnapshotNeverShrinksColumns: a reader that loaded its row
// snapshot before an Append can reach the projection cache after another
// reader extended it past that snapshot. It must get the longer column, not
// publish a shorter one — extensions append at the end of the backing
// array, so a shrunk publish misaligns every later row's code or value.
func TestStaleSnapshotNeverShrinksColumns(t *testing.T) {
	r := relationOfSize(100, 3)
	more := relationOfSize(60, 4)
	stale := r.snapshot()
	for i := 0; i < 30; i++ {
		r.MustAppend(more.Row(i))
	}
	if _, err := r.CatColumn("neighborhood"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.NumColumn("price"); err != nil {
		t.Fatal(err)
	}
	r.cols.mu.Lock()
	cat := r.catColumnLocked("neighborhood", 0, stale)
	num := r.numColumnLocked("price", 1, stale)
	r.cols.mu.Unlock()
	if len(cat.Codes) != 130 || len(num) != 130 {
		t.Fatalf("stale snapshot shrank the columns to %d codes, %d values; want 130", len(cat.Codes), len(num))
	}
	for i := 30; i < 60; i++ {
		r.MustAppend(more.Row(i))
	}
	col, err := r.CatColumn("neighborhood")
	if err != nil {
		t.Fatal(err)
	}
	prices, err := r.NumColumn("price")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if col.Value(i) != r.Row(i)[0].Str || prices[i] != r.Row(i)[1].Num {
			t.Fatalf("row %d: projected (%q, %v), stored (%q, %v)", i, col.Value(i), prices[i], r.Row(i)[0].Str, r.Row(i)[1].Num)
		}
	}
}

// TestScanSpanParallel forces multi-worker chunking (a 1-CPU box would
// otherwise run it sequentially) over a window that starts mid-word, as an
// extension build does, and checks the chunks cover [a, b) exactly once with
// every chunk after the first starting on an absolute word boundary.
func TestScanSpanParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	a := 3*64 + 17
	b := a + parallelScanRows + 1000
	var mu sync.Mutex
	var starts []int
	covered := make([]int, b)
	scanSpan(a, b, func(lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		starts = append(starts, lo)
		for i := lo; i < hi; i++ {
			covered[i]++
		}
	})
	if len(starts) < 2 {
		t.Fatalf("window of %d rows ran as %d chunk(s); want a parallel split", b-a, len(starts))
	}
	for _, lo := range starts {
		if lo != a && lo%64 != 0 {
			t.Errorf("chunk start %d is not a multiple of 64", lo)
		}
	}
	for i, n := range covered {
		want := 0
		if i >= a {
			want = 1
		}
		if n != want {
			t.Fatalf("row %d covered %d times; want %d", i, n, want)
		}
	}
	// And the engine stays correct when scans actually fan out.
	r := relationOfSize(parallelScanRows+500, 17)
	pred := NewAnd(NewIn("neighborhood", "Seattle, WA", "Redmond, WA"), NewClosedRange("price", 220000, 340000))
	sameRows(t, r.Select(pred), selectReference(r, pred), "parallel scan")
}

// TestVectorSelectConcurrent hammers one relation from several goroutines —
// cache hits, misses, and evictions interleaved — and checks every result.
// `make check` runs this under -race.
func TestVectorSelectConcurrent(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	r := relationOfSize(2000, 23)
	preds := make([]Predicate, 0, 24)
	hoods := []string{"Bellevue, WA", "Redmond, WA", "Seattle, WA", "Issaquah, WA"}
	for i := 0; i < 12; i++ {
		preds = append(preds,
			NewAnd(NewIn("neighborhood", hoods[i%4], hoods[(i+1)%4]), NewClosedRange("price", float64(200000+i*5000), float64(300000+i*5000))),
			NewClosedRange("bedrooms", float64(1+i%3), float64(3+i%3)),
		)
	}
	wants := make([][]int, len(preds))
	for i, p := range preds {
		wants[i] = selectReference(r, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 60; k++ {
				i := rng.Intn(len(preds))
				got := r.Select(preds[i])
				if !reflect.DeepEqual(got, wants[i]) {
					t.Errorf("goroutine %d: predicate %d wrong result", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSelectStatsTiming checks the wall-time and select counters move.
func TestSelectStatsTiming(t *testing.T) {
	r := relationOfSize(500, 29)
	r.Select(NewIn("neighborhood", "Seattle, WA"))
	s := r.SelectStats()
	if s.Selects != 1 {
		t.Fatalf("counters: %+v", s)
	}
	if s.SelectNanos == 0 {
		t.Fatal("SelectNanos did not accumulate")
	}
}
