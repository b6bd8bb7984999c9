package relation

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the CSV loader with schema
// inference: it must never panic, and whatever it accepts must survive a
// write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n")
	f.Add("a\n\n")
	f.Add("h1,h2,h3\n1,2,3\n4,5,6\n")
	f.Add("\"q,uoted\",n\nv,1\n")
	f.Add("a,a\n1,2\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		r, err := ReadCSV("fuzz", strings.NewReader(src), nil)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted input failed to serialize: %v", err)
		}
		back, err := ReadCSV("fuzz", &buf, r.Schema())
		if err != nil {
			t.Fatalf("round trip failed: %v\ninput: %q\nwritten: %q", err, src, buf.String())
		}
		if back.Len() != r.Len() {
			t.Fatalf("round trip changed row count %d -> %d", r.Len(), back.Len())
		}
	})
}

// FuzzVectorizedSelect is the vectorized engine's equivalence fuzz: random
// schemas, random data (NaN, ±0, ±Inf included), and random conjunct sets
// (empty IN lists, unknown attributes, type mismatches, NaN bounds) — the
// vectorized Select must return exactly the same row ids as the naive
// row-wise scan, cold and warm, and across mid-run appends that force
// conjunct/projection extension.
//
// The trailing bool argument is unused: it keeps the checked-in corpus
// entries, which carry four values, loadable.
func FuzzVectorizedSelect(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(50), false)
	f.Add(int64(2), uint8(1), uint8(0), true)
	f.Add(int64(3), uint8(4), uint8(200), true)
	f.Add(int64(-9), uint8(2), uint8(130), false)
	f.Fuzz(func(t *testing.T, seed int64, nAttrs, nRows uint8, _ bool) {
		rng := rand.New(rand.NewSource(seed))
		// Mid-run appends draw from their own stream so the main stream —
		// and everything the checked-in corpus generates from it — is
		// untouched.
		appendRng := rand.New(rand.NewSource(seed ^ 0x5e95e9))
		attrs := make([]Attribute, 1+int(nAttrs)%4)
		names := []string{"Alpha", "beta", "GAMMA", "dElTa"}
		for i := range attrs {
			typ := Categorical
			if rng.Intn(2) == 0 {
				typ = Numeric
			}
			attrs[i] = Attribute{Name: names[i], Type: typ}
		}
		r := New("fuzz", MustSchema(attrs...))
		catPalette := []string{"", "a", "b", "cc", "d'd", "Ee"}
		numPalette := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, 1e9, -1e9,
			math.NaN(), math.Inf(1), math.Inf(-1), 41.99999999999999, 42}
		randTuple := func(rng *rand.Rand) Tuple {
			tup := make(Tuple, len(attrs))
			for j, a := range attrs {
				if a.Type == Categorical {
					tup[j] = StringValue(catPalette[rng.Intn(len(catPalette))])
				} else {
					tup[j] = NumberValue(numPalette[rng.Intn(len(numPalette))])
				}
			}
			return tup
		}
		for i := 0; i < int(nRows); i++ {
			r.MustAppend(randTuple(rng))
		}
		attrPool := append([]string{}, names[:len(attrs)]...)
		attrPool = append(attrPool, "missing")
		for trial := 0; trial < 10; trial++ {
			if trial > 0 && appendRng.Intn(3) == 0 {
				// Mid-run appends: cached conjunct bitmaps and projections
				// built by earlier trials must extend.
				for k := appendRng.Intn(3) + 1; k > 0; k-- {
					r.MustAppend(randTuple(appendRng))
				}
			}
			nConj := 1 + rng.Intn(4)
			conjs := make([]Predicate, 0, nConj)
			for c := 0; c < nConj; c++ {
				attr := attrPool[rng.Intn(len(attrPool))]
				if rng.Intn(2) == 0 {
					vals := make([]string, rng.Intn(4)) // may be empty
					for k := range vals {
						vals[k] = catPalette[rng.Intn(len(catPalette))]
					}
					conjs = append(conjs, NewIn(attr, vals...))
				} else {
					lo := numPalette[rng.Intn(len(numPalette))]
					hi := numPalette[rng.Intn(len(numPalette))]
					conjs = append(conjs, &Range{Attr: attr, Lo: lo, Hi: hi, HiInc: rng.Intn(2) == 0})
				}
			}
			var pred Predicate = NewAnd(conjs...)
			if len(conjs) == 1 && rng.Intn(2) == 0 {
				pred = conjs[0]
			}
			want := []int{}
			for i := 0; i < r.Len(); i++ {
				if pred.Matches(r.Schema(), r.Row(i)) {
					want = append(want, i)
				}
			}
			for pass := 0; pass < 2; pass++ { // cold, then conjunct-cache warm
				got := r.vectorSelect(pred)
				if len(got) != len(want) {
					t.Fatalf("pass %d: %v: got %d rows, want %d\ngot:  %v\nwant: %v",
						pass, pred, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("pass %d: %v: row %d = %d, want %d", pass, pred, i, got[i], want[i])
					}
				}
			}
		}
	})
}
