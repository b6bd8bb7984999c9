package relation

import (
	"math/rand"
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

// TestDictionaryRemapOnAppend pins the one structural projection event: a
// brand-new categorical value sorting before existing dictionary entries
// forces a remap; old snapshots must be untouched, the new snapshot
// consistent, and IN selections exact across the remap.
func TestDictionaryRemapOnAppend(t *testing.T) {
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
