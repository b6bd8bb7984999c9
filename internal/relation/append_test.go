package relation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// appendTestRelation builds a relation of n rows from a deterministic
// generator (seed fixed), appended one at a time.
func appendTestRelation(t *testing.T, n int) *Relation {
	t.Helper()
	r := New("homes", MustSchema(
		Attribute{Name: "neighborhood", Type: Categorical},
		Attribute{Name: "price", Type: Numeric},
		Attribute{Name: "bedrooms", Type: Numeric},
	))
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

// TestSegmentedSelectEquivalence is the iron contract at the Select layer:
// at every mid-append point, the vectorized path returns exactly the rows
// the naive row-wise scan does, while cached conjuncts extend rather than
// rebuild.
func TestSegmentedSelectEquivalence(t *testing.T) {
	preds := []Predicate{
		NewIn("neighborhood", "Bellevue, WA"),
		NewIn("neighborhood", "Seattle, WA", "Redmond, WA"),
		NewRange("price", 210000, 300000),
		NewClosedRange("price", 200000, 215000),
		NewAnd(NewIn("neighborhood", "Bellevue, WA"), NewClosedRange("price", 200000, 400000)),
		NewAnd(NewRange("price", 250000, 440000), NewClosedRange("bedrooms", 2, 4)),
	}
	r := appendTestRelation(t, 140)
	// Exercise each predicate cold, then across append batches that end
	// mid-word (140 + 30 + 31 + … rows), then warm.
	for batch := 0; batch < 4; batch++ {
		for _, pred := range preds {
			want := selectReference(r, pred)
			sameRows(t, r.Select(pred), want, "appended select")
			sameRows(t, r.Select(pred), want, "appended select warm")
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
}

// TestDictionaryCodesStableOnAppend pins the dictionary contract: a
// categorical value's code is assigned on arrival and never changes. A new
// value, even one that sorts before every existing value, takes the next
// code; old snapshots are untouched, existing rows keep their codes, and IN
// selections stay exact across the arrival.
func TestDictionaryCodesStableOnAppend(t *testing.T) {
	r := New("homes", MustSchema(
		Attribute{Name: "city", Type: Categorical},
		Attribute{Name: "price", Type: Numeric},
	))
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
	if want := []string{"zz", "mm"}; !reflect.DeepEqual(before.Dict, want) {
		t.Fatalf("dictionary %v, want first-appearance order %v", before.Dict, want)
	}
	beforeCodes := append([]uint32{}, before.Codes...)
	pred := NewIn("city", "zz")
	want := selectReference(r, pred)
	sameRows(t, r.Select(pred), want, "before the new value")

	// "aa" sorts before both existing values; it still takes the next code.
	r.MustAppend(Tuple{StringValue("aa"), NumberValue(99)})
	after, err := r.CatColumn("city")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"zz", "mm", "aa"}; !reflect.DeepEqual(after.Dict, want) {
		t.Fatalf("dictionary %v after the new value, want %v", after.Dict, want)
	}
	if len(before.Dict) != 2 || len(before.Codes) != 10 {
		t.Fatalf("old snapshot changed: %d values, %d codes", len(before.Dict), len(before.Codes))
	}
	for i, c := range beforeCodes {
		if before.Codes[i] != c || after.Codes[i] != c {
			t.Fatalf("row %d: code %d, old snapshot %d, new snapshot %d", i, c, before.Codes[i], after.Codes[i])
		}
	}
	if c, ok := after.Code("aa"); !ok || c != 2 || after.Codes[10] != 2 {
		t.Fatalf("new value coded %d (ok=%v), row 10 holds %d; want 2", c, ok, after.Codes[10])
	}
	want = selectReference(r, pred)
	sameRows(t, r.Select(pred), want, "after the new value")
	sameRows(t, r.Select(NewIn("city", "aa")), []int{10}, "new value")
}

// TestAppendKnownValuesAllocatesNothing: after Grow, appending a tuple
// whose categorical values are already coded writes cells into spare
// capacity and raises the count — no allocation at all.
func TestAppendKnownValuesAllocatesNothing(t *testing.T) {
	r := appendTestRelation(t, 10)
	tup := Tuple{StringValue("Seattle, WA"), NumberValue(250000), NumberValue(3)}
	r.Grow(200)
	if allocs := testing.AllocsPerRun(100, func() { r.MustAppend(tup) }); allocs != 0 {
		t.Fatalf("Append of known values allocated %.1f times per call, want 0", allocs)
	}
	if r.Len() != 111 {
		t.Fatalf("%d rows, want 111", r.Len())
	}
}

// TestAppendKeepsNoReference: the relation copies a tuple's cells, so the
// caller may reuse or change its slice after Append.
func TestAppendKeepsNoReference(t *testing.T) {
	r := appendTestRelation(t, 0)
	tup := Tuple{StringValue("Redmond, WA"), NumberValue(210000), NumberValue(2)}
	r.MustAppend(tup)
	tup[0], tup[1] = StringValue("changed"), NumberValue(-1)
	if got := r.Row(0); got[0].Str != "Redmond, WA" || got[1].Num != 210000 || got[2].Num != 2 {
		t.Fatalf("row 0 = %v after the caller changed its tuple", got)
	}
	got := r.Row(0)
	got[0] = StringValue("also changed")
	if r.Row(0)[0].Str != "Redmond, WA" {
		t.Fatal("changing a returned row changed the relation")
	}
}

// TestRowRoundTripsSpecialCells: NaN, ±0, ±Inf and the empty string come
// back from Row bit for bit, through Append and through AppendPages.
func TestRowRoundTripsSpecialCells(t *testing.T) {
	nums := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5}
	strs := []string{"", "x", "", "y", "", "x"}
	schema := MustSchema(Attribute{Name: "s", Type: Categorical}, Attribute{Name: "v", Type: Numeric})
	heap := New("cells", schema)
	for i := range nums {
		heap.MustAppend(Tuple{StringValue(strs[i]), NumberValue(nums[i])})
	}
	paged := New("cells", schema)
	if err := paged.AppendPages([]Page{
		{Codes: []uint32{0, 1, 0, 2, 0, 1}, Dict: []string{"", "x", "y"}},
		{Nums: nums},
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Relation{heap, paged} {
		for i := range nums {
			got := r.Row(i)
			if got[0].Str != strs[i] || math.Float64bits(got[1].Num) != math.Float64bits(nums[i]) {
				t.Fatalf("row %d = (%q, %v), want (%q, %v)", i, got[0].Str, got[1].Num, strs[i], nums[i])
			}
		}
	}
}

// TestAppendPagesRejects: a bulk append whose pages do not fit the schema
// returns an error and leaves rows and dictionaries unchanged.
func TestAppendPagesRejects(t *testing.T) {
	r := appendTestRelation(t, 20)
	good := func() []Page {
		return []Page{
			{Codes: []uint32{1, 0}, Dict: []string{"Bellevue, WA", "Fresh, WA"}},
			{Nums: []float64{1, 2}},
			{Nums: []float64{3, 4}},
		}
	}
	cases := map[string]func(p []Page) []Page{
		"too few pages":      func(p []Page) []Page { return p[:2] },
		"short numeric page": func(p []Page) []Page { p[2].Nums = p[2].Nums[:1]; return p },
		"long code page":     func(p []Page) []Page { p[0].Codes = append(p[0].Codes, 0); return p },
		"codes for numeric":  func(p []Page) []Page { p[1] = Page{Codes: []uint32{0, 0}, Dict: []string{"a"}}; return p },
		"nums for categorical": func(p []Page) []Page {
			p[0] = Page{Nums: []float64{1, 2}}
			return p
		},
		"code outside dictionary": func(p []Page) []Page { p[0].Codes[1] = 2; return p },
	}
	before, err := r.CatColumn("neighborhood")
	if err != nil {
		t.Fatal(err)
	}
	for name, mangle := range cases {
		if err := r.AppendPages(mangle(good())); err == nil {
			t.Errorf("%s: AppendPages accepted", name)
		}
		after, err := r.CatColumn("neighborhood")
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 20 || after.Card() != before.Card() {
			t.Fatalf("%s: rejected append left %d rows and %d values, want 20 and %d", name, r.Len(), after.Card(), before.Card())
		}
	}
	if err := r.AppendPages(good()); err != nil {
		t.Fatal(err)
	}
	if got := r.Row(21); got[0].Str != "Bellevue, WA" || got[2].Num != 4 {
		t.Fatalf("row 21 = %v", got)
	}
	if got := r.Row(20); got[0].Str != "Fresh, WA" {
		t.Fatalf("row 20 = %v", got)
	}
}

// TestConcurrentNewValuesLookup races Appends that add new dictionary
// values against Select IN-lookups and CatColumn.Code under -race. A
// snapshot never sees a code past its own dictionary: Code reads such a
// value as absent, and Select returns an exact prefix answer.
func TestConcurrentNewValuesLookup(t *testing.T) {
	r := appendTestRelation(t, 50)
	const total = 400
	val := func(i int) string { return fmt.Sprintf("v%03d", i) }
	// A snapshot taken before a value arrives never finds it.
	stale, err := r.CatColumn("neighborhood")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			r.MustAppend(Tuple{StringValue(val(i)), NumberValue(float64(i)), NumberValue(1)})
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 300; iter++ {
				i := rng.Intn(total)
				col, err := r.CatColumn("neighborhood")
				if err != nil {
					panicf(t, "CatColumn: %v", err)
					return
				}
				if c, ok := col.Code(val(i)); ok {
					if int(c) >= len(col.Dict) || col.Dict[c] != val(i) {
						panicf(t, "Code(%s) = %d outside or wrong in a %d-value snapshot", val(i), c, len(col.Dict))
					}
				}
				if _, ok := stale.Code(val(i)); ok {
					panicf(t, "stale snapshot found %s", val(i))
				}
				// Row 50+i holds val(i); an IN on it matches that row or,
				// on a snapshot taken before it arrived, nothing.
				got := r.Select(NewIn("neighborhood", val(i)))
				if len(got) > 1 || (len(got) == 1 && got[0] != 50+i) {
					panicf(t, "IN %s selected %v", val(i), got)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < total; i++ {
		sameRows(t, r.Select(NewIn("neighborhood", val(i))), []int{50 + i}, "quiesced IN")
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

// TestConcurrentAppendSelect races Appends with Selects and SelectStats
// under -race: every Select must return a consistent prefix result —
// exactly the reference answer over some row count the relation passed
// through.
func TestConcurrentAppendSelect(t *testing.T) {
	r := appendTestRelation(t, 100)
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
				_ = r.SelectStats()
			}
		}()
	}
	wg.Wait()
	want := selectReference(r, pred)
	sameRows(t, r.Select(pred), want, "quiesced select")
	if r.Len() != base+total {
		t.Fatalf("%d rows after quiesce, want %d", r.Len(), base+total)
	}
}

func panicf(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Errorf(format, args...)
}
