package relation

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// segTestRelation builds a relation with the given segment size, appending
// n rows from the deterministic generator relationOfSize uses (seed fixed),
// so two relations with different segment sizes hold identical rows.
func segTestRelation(t *testing.T, segRows, n int) *Relation {
	t.Helper()
	r := New("homes", MustSchema(
		Attribute{Name: "neighborhood", Type: Categorical},
		Attribute{Name: "price", Type: Numeric},
		Attribute{Name: "bedrooms", Type: Numeric},
	))
	if segRows > 0 {
		if err := r.SetSegmentRows(segRows); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
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

func TestSetSegmentRows(t *testing.T) {
	r := segTestRelation(t, 0, 0)
	if got := r.segmentRows(); got != DefaultSegmentRows {
		t.Fatalf("default segment size %d, want %d", got, DefaultSegmentRows)
	}
	if err := r.SetSegmentRows(0); err == nil {
		t.Fatal("segment size 0 must be rejected")
	}
	if err := r.SetSegmentRows(17); err != nil {
		t.Fatal(err)
	}
	if got := r.segmentRows(); got != 17 {
		t.Fatalf("segment size %d, want 17", got)
	}
	r.MustAppend(Tuple{StringValue("x"), NumberValue(1), NumberValue(1)})
	if err := r.SetSegmentRows(32); err == nil {
		t.Fatal("segment size must be immutable once rows exist")
	}
}

func TestSealingBoundaries(t *testing.T) {
	r := segTestRelation(t, 10, 0)
	for i := 1; i <= 35; i++ {
		r.MustAppend(Tuple{StringValue("x"), NumberValue(float64(i)), NumberValue(1)})
		wantSealed := i / 10 * 10
		if got := r.sealedRows(); got != wantSealed {
			t.Fatalf("after %d appends: sealed %d rows, want %d", i, got, wantSealed)
		}
	}
	segs := r.sealedSegments()
	if len(segs) != 3 {
		t.Fatalf("segments %d, want 3", len(segs))
	}
	for i, seg := range segs {
		if seg.lo != i*10 || seg.hi != (i+1)*10 {
			t.Fatalf("segment %d spans [%d,%d), want [%d,%d)", i, seg.lo, seg.hi, i*10, (i+1)*10)
		}
	}
	st := r.StorageStats()
	if st.SegmentRows != 10 || st.Segments != 3 || st.SealedRows != 30 || st.TailRows != 5 || st.Seals != 3 {
		t.Fatalf("storage stats %+v", st)
	}
}

// TestSegmentedSelectEquivalence is the iron contract at the Select layer:
// for every segment size — including 1, 64, a non-word-multiple, and the
// default — and at every mid-append point, the segmented vectorized path
// returns exactly the rows the naive row-wise scan does, while cached
// conjuncts extend rather than rebuild.
func TestSegmentedSelectEquivalence(t *testing.T) {
	preds := []Predicate{
		NewIn("neighborhood", "Bellevue, WA"),
		NewIn("neighborhood", "Seattle, WA", "Redmond, WA"),
		NewRange("price", 210000, 300000),
		NewClosedRange("price", 200000, 215000),
		NewAnd(NewIn("neighborhood", "Bellevue, WA"), NewClosedRange("price", 200000, 400000)),
		NewAnd(NewRange("price", 250000, 440000), NewClosedRange("bedrooms", 2, 4)),
	}
	for _, segRows := range []int{1, 37, 64, DefaultSegmentRows} {
		r := segTestRelation(t, segRows, 140)
		// Exercise each predicate cold, then across append batches that cross
		// seal boundaries, then warm.
		for batch := 0; batch < 4; batch++ {
			for _, pred := range preds {
				want := selectReference(r, pred)
				sameRows(t, r.Select(pred), want, "segmented select")
				sameRows(t, r.Select(pred), want, "segmented select warm")
			}
			rng := rand.New(rand.NewSource(int64(batch)))
			hoods := []string{"Bellevue, WA", "Redmond, WA", "Seattle, WA", "Issaquah, WA"}
			for i := 0; i < 30+batch; i++ {
				r.MustAppend(Tuple{
					StringValue(hoods[rng.Intn(len(hoods))]),
					NumberValue(float64(200000 + rng.Intn(50)*5000)),
					NumberValue(float64(1 + rng.Intn(6))),
				})
			}
		}
		if segRows == 1 {
			if st := r.StorageStats(); st.Segments != r.Len() || st.TailRows != 0 {
				t.Fatalf("segment size 1: %+v", st)
			}
		}
	}
}

// TestDictionaryRemapOnAppend pins the one structural projection event: a
// brand-new categorical value sorting before existing dictionary entries
// forces a remap; old snapshots must be untouched, the new snapshot
// consistent, and IN selections exact across the remap.
func TestDictionaryRemapOnAppend(t *testing.T) {
	r := New("homes", MustSchema(
		Attribute{Name: "city", Type: Categorical},
		Attribute{Name: "price", Type: Numeric},
	))
	if err := r.SetSegmentRows(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		city := "mm"
		if i%2 == 0 {
			city = "zz"
		}
		r.MustAppend(Tuple{StringValue(city), NumberValue(float64(i))})
	}
	before, err := r.CatColumn("city")
	if err != nil {
		t.Fatal(err)
	}
	beforeCodes := append([]uint32{}, before.Codes...)
	pred := NewIn("city", "zz")
	want := selectReference(r, pred)
	sameRows(t, r.Select(pred), want, "pre-remap")

	// "aa" sorts before both existing values: every existing code shifts.
	r.MustAppend(Tuple{StringValue("aa"), NumberValue(99)})
	after, err := r.CatColumn("city")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Dict) != 3 || after.Dict[0] != "aa" {
		t.Fatalf("remapped dictionary %v", after.Dict)
	}
	for i, c := range beforeCodes {
		if before.Codes[i] != c {
			t.Fatalf("old snapshot mutated at row %d", i)
		}
		if after.Dict[after.Codes[i]] != before.Dict[c] {
			t.Fatalf("row %d decodes %q after remap, was %q", i, after.Dict[after.Codes[i]], before.Dict[c])
		}
	}
	want = selectReference(r, pred)
	sameRows(t, r.Select(pred), want, "post-remap")
	sameRows(t, r.Select(NewIn("city", "aa")), []int{10}, "new value")
}

// TestZoneMapPruning checks that selective ranges over clustered data skip
// sealed segments (counted in StorageStats) without changing results, and
// that NaN/±0/±Inf rows and bounds never cause a wrong prune.
func TestZoneMapPruning(t *testing.T) {
	r := New("events", MustSchema(
		Attribute{Name: "kind", Type: Categorical},
		Attribute{Name: "ts", Type: Numeric},
	))
	if err := r.SetSegmentRows(64); err != nil {
		t.Fatal(err)
	}
	kinds := []string{"alpha", "beta", "gamma", "delta"}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		ts := float64(i) // monotone: consecutive segments have disjoint ranges
		if i%97 == 0 {
			ts = specials[rng.Intn(len(specials))]
		}
		// Cluster kinds so categorical zone maps can prune too.
		r.MustAppend(Tuple{StringValue(kinds[i/256]), NumberValue(ts)})
	}
	if err := r.BuildColumns(); err != nil {
		t.Fatal(err)
	}
	check := func(pred Predicate, what string) {
		t.Helper()
		sameRows(t, r.Select(pred), selectReference(r, pred), what)
	}
	base := r.StorageStats().ZonePruned
	check(NewClosedRange("ts", 500, 520), "selective range")
	if got := r.StorageStats().ZonePruned; got <= base {
		t.Fatalf("selective range pruned no segments (%d -> %d)", base, got)
	}
	check(NewClosedRange("ts", math.Inf(-1), math.Inf(1)), "full range")
	check(NewRange("ts", 0, 0), "empty range")
	check(&Range{Attr: "ts", Lo: math.NaN(), Hi: 600, HiInc: true}, "NaN lower bound")
	check(&Range{Attr: "ts", Lo: 0, Hi: math.NaN(), HiInc: true}, "NaN upper bound")
	check(NewClosedRange("ts", math.Copysign(0, -1), 0), "signed zero bounds")
	base = r.StorageStats().ZonePruned
	check(NewIn("kind", "alpha"), "clustered IN")
	if got := r.StorageStats().ZonePruned; got <= base {
		t.Fatalf("clustered IN pruned no segments (%d -> %d)", base, got)
	}
	check(NewIn("kind", "nope"), "absent IN")
	check(NewAnd(NewIn("kind", "delta"), NewClosedRange("ts", 100, 900)), "conjunction")
}

// TestZoneSpansPlan unit-tests the span planner: pruned fully-covered
// segments are cut, partially-covered segments always scanned, surviving
// spans word-aligned within the window and merged when touching.
func TestZoneSpansPlan(t *testing.T) {
	r := segTestRelation(t, 100, 1000) // 100 is not a multiple of 64
	segs := r.sealedSegments()
	if len(segs) != 10 {
		t.Fatalf("segments %d, want 10", len(segs))
	}
	// Prune segments 2,3 and 7: spans must cut those, word-aligned.
	spans := r.zoneSpans(0, 1000, func(s *segment) bool {
		return !(s.lo == 200 || s.lo == 300 || s.lo == 700)
	})
	for i, sp := range spans {
		if sp.lo >= sp.hi {
			t.Fatalf("empty span %d: %+v", i, sp)
		}
		if sp.lo%64 != 0 && sp.lo != 0 {
			t.Fatalf("span %d start %d not word-aligned", i, sp.lo)
		}
		if sp.hi%64 != 0 && sp.hi != 1000 {
			t.Fatalf("span %d end %d not word-aligned", i, sp.hi)
		}
		if i > 0 && sp.lo <= spans[i-1].hi {
			t.Fatalf("spans overlap or touch unmerged: %+v", spans)
		}
	}
	covered := func(row int) bool {
		for _, sp := range spans {
			if row >= sp.lo && row < sp.hi {
				return true
			}
		}
		return false
	}
	for row := 0; row < 1000; row++ {
		pruned := (row >= 200 && row < 400) || (row >= 700 && row < 800)
		if !pruned && !covered(row) {
			t.Fatalf("row %d outside pruned segments not covered by any span", row)
		}
	}
	// A window end mid-segment: the partially-covered segment must be
	// scanned even if its zone says no match. The span start aligns down to
	// the word boundary 192, re-covering 8 rows of the pruned neighbor —
	// harmless by construction (pruned rows evaluate to no match).
	spans = r.zoneSpans(0, 250, func(*segment) bool { return false })
	if len(spans) != 1 || spans[0].lo != 192 || spans[0].hi != 250 {
		t.Fatalf("partial-coverage plan %+v, want [{192 250}]", spans)
	}
}

func TestBitmapMixedUniverses(t *testing.T) {
	b := NewBitmap(130)
	for _, i := range []int{0, 63, 64, 100, 128, 129} {
		b.Set(i)
	}
	o := NewBitmap(70)
	o.Set(0)
	o.Set(64)
	if got := b.Clone().And(o); got != 2 {
		t.Fatalf("And across universes = %d, want 2", got)
	}
	// Symmetric: short bitmap against long operand.
	if got := o.Clone().And(b); got != 2 {
		t.Fatalf("short.And(long) = %d, want 2", got)
	}
}

// TestConcurrentAppendSealSelect races Appends (which seal segments) with
// Selects and StorageStats under -race: every Select must return a
// consistent prefix result — exactly the reference answer over some row
// count the relation passed through.
func TestConcurrentAppendSealSelect(t *testing.T) {
	r := segTestRelation(t, 8, 100)
	pred := NewAnd(NewIn("neighborhood", "Bellevue, WA"), NewClosedRange("price", 200000, 330000))
	// Reference answers for every prefix length: matches[i] is whether row i
	// matches, so wantAt(n) is the prefix-sum filter.
	const total = 600
	rows := make([]Tuple, 0, total)
	rng := rand.New(rand.NewSource(99))
	hoods := []string{"Bellevue, WA", "Redmond, WA", "Seattle, WA", "Issaquah, WA"}
	for i := 0; i < total; i++ {
		rows = append(rows, Tuple{
			StringValue(hoods[rng.Intn(len(hoods))]),
			NumberValue(float64(200000 + rng.Intn(50)*5000)),
			NumberValue(float64(1 + rng.Intn(6))),
		})
	}
	// matched[i] answers "does row i match pred" for every row the relation
	// will ever hold, precomputed so reader goroutines do no map work.
	base := 100
	matched := make([]bool, base+total)
	for i := 0; i < base; i++ {
		matched[i] = pred.Matches(r.Schema(), r.Row(i))
	}
	for i, row := range rows {
		matched[base+i] = pred.Matches(r.Schema(), row)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, row := range rows {
			r.MustAppend(row)
		}
	}()
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				got := r.Select(pred)
				// The result must be the exact answer for SOME prefix the
				// relation passed through: row ids ascending, no matching row
				// skipped before the last returned id, no non-matching row
				// included.
				last := -1
				for _, i := range got {
					if i <= last {
						panicf(t, "rows out of order: %v", got)
					}
					for j := last + 1; j < i; j++ {
						if matched[j] {
							panicf(t, "skipped matching row %d in %v", j, got)
						}
					}
					if !matched[i] {
						panicf(t, "non-matching row %d selected", i)
					}
					last = i
				}
				_ = r.StorageStats()
			}
		}()
	}
	wg.Wait()
	want := selectReference(r, pred)
	sameRows(t, r.Select(pred), want, "quiesced select")
	if st := r.StorageStats(); st.SealedRows != (base+total)/8*8 {
		t.Fatalf("sealed rows %d after quiesce, want %d", st.SealedRows, (base+total)/8*8)
	}
}

func panicf(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Errorf(format, args...)
}
