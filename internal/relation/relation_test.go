package relation

import (
	"math"
	"strings"
	"testing"
)

func homesSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "neighborhood", Type: Categorical},
		Attribute{Name: "price", Type: Numeric},
		Attribute{Name: "bedrooms", Type: Numeric},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func homesRelation(t *testing.T) *Relation {
	t.Helper()
	r := New("homes", homesSchema(t))
	rows := []struct {
		n    string
		p, b float64
	}{
		{"Bellevue, WA", 250000, 3},
		{"Redmond, WA", 220000, 2},
		{"Seattle, WA", 310000, 4},
		{"Bellevue, WA", 280000, 5},
		{"Issaquah, WA", 205000, 3},
	}
	for _, row := range rows {
		r.MustAppend(Tuple{StringValue(row.n), NumberValue(row.p), NumberValue(row.b)})
	}
	return r
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(
		Attribute{Name: "price", Type: Numeric},
		Attribute{Name: "Price", Type: Numeric},
	)
	if err == nil {
		t.Fatal("expected error for case-insensitive duplicate attribute")
	}
}

func TestNewSchemaRejectsEmptyName(t *testing.T) {
	if _, err := NewSchema(Attribute{Name: "", Type: Numeric}); err == nil {
		t.Fatal("expected error for empty attribute name")
	}
}

func TestSchemaLookupCaseInsensitive(t *testing.T) {
	s := homesSchema(t)
	for _, name := range []string{"price", "PRICE", "Price"} {
		i, ok := s.Lookup(name)
		if !ok || i != 1 {
			t.Errorf("Lookup(%q) = %d,%v; want 1,true", name, i, ok)
		}
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Error("Lookup(missing) should fail")
	}
}

func TestSchemaTypeOf(t *testing.T) {
	s := homesSchema(t)
	if typ, ok := s.TypeOf("neighborhood"); !ok || typ != Categorical {
		t.Errorf("TypeOf(neighborhood) = %v,%v", typ, ok)
	}
	if typ, ok := s.TypeOf("price"); !ok || typ != Numeric {
		t.Errorf("TypeOf(price) = %v,%v", typ, ok)
	}
	if _, ok := s.TypeOf("nope"); ok {
		t.Error("TypeOf(nope) should fail")
	}
}

func TestTypeString(t *testing.T) {
	if Categorical.String() != "categorical" || Numeric.String() != "numeric" {
		t.Errorf("Type.String: got %q, %q", Categorical, Numeric)
	}
	if got := Type(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown type string = %q", got)
	}
}

func TestAppendWidthMismatch(t *testing.T) {
	r := New("homes", homesSchema(t))
	if err := r.Append(Tuple{StringValue("x")}); err == nil {
		t.Fatal("expected width-mismatch error")
	}
}

func TestSelectNilPredicate(t *testing.T) {
	r := homesRelation(t)
	idx := r.Select(nil)
	if len(idx) != r.Len() {
		t.Fatalf("Select(nil) returned %d rows, want %d", len(idx), r.Len())
	}
	for i, v := range idx {
		if v != i {
			t.Fatalf("Select(nil)[%d] = %d; want row order", i, v)
		}
	}
}

func TestSelectWithPredicates(t *testing.T) {
	r := homesRelation(t)
	tests := []struct {
		name string
		pred Predicate
		want []int
	}{
		{"in-bellevue", NewIn("neighborhood", "Bellevue, WA"), []int{0, 3}},
		{"price-range", NewRange("price", 200000, 260000), []int{0, 1, 4}},
		{"closed-range", NewClosedRange("bedrooms", 3, 4), []int{0, 2, 4}},
		{"conjunction", NewAnd(NewIn("neighborhood", "Bellevue, WA"), NewRange("price", 260000, 300000)), []int{3}},
		{"true", True{}, []int{0, 1, 2, 3, 4}},
		{"empty-and", NewAnd(), []int{0, 1, 2, 3, 4}},
		{"no-match", NewIn("neighborhood", "Kirkland, WA"), []int{}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := r.Select(tc.pred)
			if len(got) != len(tc.want) {
				t.Fatalf("Select = %v; want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Select = %v; want %v", got, tc.want)
				}
			}
		})
	}
}

func TestPredicateUnknownAttribute(t *testing.T) {
	r := homesRelation(t)
	if n := len(r.Select(NewIn("nope", "x"))); n != 0 {
		t.Errorf("In over unknown attribute matched %d rows", n)
	}
	if n := len(r.Select(NewRange("nope", 0, 1))); n != 0 {
		t.Errorf("Range over unknown attribute matched %d rows", n)
	}
}

func TestPredicateTypeMismatch(t *testing.T) {
	r := homesRelation(t)
	// In over a numeric attribute and Range over a categorical one never match.
	if n := len(r.Select(NewIn("price", "250000"))); n != 0 {
		t.Errorf("In over numeric attribute matched %d rows", n)
	}
	if n := len(r.Select(NewRange("neighborhood", 0, 1e9))); n != 0 {
		t.Errorf("Range over categorical attribute matched %d rows", n)
	}
}

func TestRangeHalfOpenVsClosed(t *testing.T) {
	s := homesSchema(t)
	tup := Tuple{StringValue("Bellevue, WA"), NumberValue(300000), NumberValue(3)}
	if NewRange("price", 200000, 300000).Matches(s, tup) {
		t.Error("half-open range should exclude upper bound")
	}
	if !NewClosedRange("price", 200000, 300000).Matches(s, tup) {
		t.Error("closed range should include upper bound")
	}
}

func TestPredicateStrings(t *testing.T) {
	tests := []struct {
		pred Predicate
		want string
	}{
		{True{}, "TRUE"},
		{NewAnd(), "TRUE"},
		{NewIn("neighborhood", "B", "A"), "neighborhood IN ('A','B')"},
		{NewRange("price", 200000, 300000), "price >= 200000 AND price < 300000"},
		{NewClosedRange("price", 200000, 300000), "price >= 200000 AND price <= 300000"},
		{&Range{Attr: "price", Lo: math.Inf(-1), Hi: 300000}, "price < 300000"},
		{&Range{Attr: "price", Lo: 200000, Hi: math.Inf(1)}, "price >= 200000"},
		{&Range{Attr: "price", Lo: math.Inf(-1), Hi: math.Inf(1)}, "TRUE"},
		{NewAnd(NewIn("n", "x"), NewRange("p", 1, 2)), "n IN ('x') AND p >= 1 AND p < 2"},
	}
	for _, tc := range tests {
		if got := tc.pred.String(); got != tc.want {
			t.Errorf("String() = %q; want %q", got, tc.want)
		}
	}
}

func TestInStringQuotesEmbeddedQuote(t *testing.T) {
	got := NewIn("n", "O'Brien").String()
	want := "n IN ('O''Brien')"
	if got != want {
		t.Errorf("String() = %q; want %q", got, want)
	}
}

func TestNewAndFlattens(t *testing.T) {
	inner := NewAnd(NewIn("a", "x"), True{})
	outer := NewAnd(inner, NewRange("b", 0, 1), nil)
	if len(outer.Preds) != 2 {
		t.Fatalf("flattened conjunction has %d conjuncts; want 2", len(outer.Preds))
	}
}

func TestGrow(t *testing.T) {
	r := New("homes", homesSchema(t))
	r.MustAppend(Tuple{StringValue("a"), NumberValue(1), NumberValue(2)})
	r.Grow(100)
	if r.Len() != 1 {
		t.Fatalf("Grow changed Len to %d", r.Len())
	}
	if got := r.Row(0)[0].Str; got != "a" {
		t.Fatalf("Grow lost data: row0 = %q", got)
	}
}
