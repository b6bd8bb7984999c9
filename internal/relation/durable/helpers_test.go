package durable

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/category"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The durable tests drive everything through one deterministic row
// generator so every assertion reduces to "the recovered store equals the
// in-memory relation built from rows [0, n)". The generator deliberately
// hits the codec's edge cases on a fixed cadence: NaN and ±Inf prices,
// negative zero, empty strings, and multi-byte values.

func testSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "neighborhood", Type: relation.Categorical},
		relation.Attribute{Name: "price", Type: relation.Numeric},
		relation.Attribute{Name: "bedrooms", Type: relation.Numeric},
		relation.Attribute{Name: "propertytype", Type: relation.Categorical},
	)
}

var testHoods = []string{"Bellevue, WA", "Redmond, WA", "Seattle, WA", "Issaquah, WA", "Kirkland, WA"}
var testTypes = []string{"Single Family", "Condo", "Townhouse", "", "Ünïcodé 'quoted'"}

// testTuple is row i of the canonical test dataset.
func testTuple(i int) relation.Tuple {
	price := 200000 + float64((i*7919)%20)*5000
	switch {
	case i%97 == 43:
		price = math.NaN()
	case i%89 == 21:
		price = math.Inf(1)
	case i%83 == 11:
		price = math.Inf(-1)
	case i%79 == 5:
		price = math.Copysign(0, -1)
	}
	return relation.Tuple{
		relation.StringValue(testHoods[(i*31)%len(testHoods)]),
		relation.NumberValue(price),
		relation.NumberValue(float64(1 + (i*13)%6)),
		relation.StringValue(testTypes[(i*17)%len(testTypes)]),
	}
}

// memRelation builds the in-memory reference for rows [0, n).
func memRelation(tb testing.TB, n, segRows int) *relation.Relation {
	tb.Helper()
	r := relation.New("ListProperty", testSchema())
	if err := r.SetSegmentRows(segRows); err != nil {
		tb.Fatal(err)
	}
	r.Grow(n)
	for i := 0; i < n; i++ {
		r.MustAppend(testTuple(i))
	}
	return r
}

// testPredicates is the equivalence battery: membership, half-open and
// closed ranges, conjunctions, NaN bounds, unknown and mistyped attributes.
func testPredicates() []relation.Predicate {
	return []relation.Predicate{
		nil,
		relation.True{},
		relation.NewIn("neighborhood", "Bellevue, WA", "Seattle, WA"),
		relation.NewIn("propertytype", ""),
		relation.NewIn("propertytype", "Condo", "no-such-type"),
		relation.NewIn("neighborhood"),
		relation.NewRange("price", 225000, 260000),
		relation.NewClosedRange("price", 250000, 250000),
		relation.NewRange("price", math.Inf(-1), math.Inf(1)),
		relation.NewClosedRange("price", math.Inf(-1), math.Inf(1)),
		relation.NewRange("bedrooms", 2, 4),
		relation.NewRange("price", math.NaN(), 250000),
		relation.NewRange("price", 200000, math.NaN()),
		relation.NewClosedRange("price", -1, math.Copysign(0, -1)),
		relation.NewAnd(
			relation.NewIn("neighborhood", "Redmond, WA", "Kirkland, WA"),
			relation.NewClosedRange("price", 210000, 280000),
			relation.NewRange("bedrooms", 1, 5),
		),
		relation.NewIn("price", "225000"),       // mistyped: numeric attr
		relation.NewRange("neighborhood", 0, 1), // mistyped: categorical attr
		relation.NewIn("nosuchattr", "x"),       // unknown attr
		relation.NewAnd(relation.NewIn("nope"), relation.NewRange("price", 0, 1e9)),
	}
}

// assertStoreMatches pins the full contract between st and the in-memory
// prefix mem: identical surviving rows, identical Select answers on the
// whole predicate battery (the relation Store.Relation() materializes and
// mem, both checked against a row-wise Matches scan of mem), and — when
// trees is true — byte-identical category trees.
func assertStoreMatches(tb testing.TB, st *Store, mem *relation.Relation, trees bool) {
	tb.Helper()
	rel, err := st.Relation("ListProperty")
	if err != nil {
		tb.Fatalf("materialize: %v", err)
	}
	if rel.Len() != mem.Len() {
		tb.Fatalf("recovered %d rows, want %d", rel.Len(), mem.Len())
	}
	for i := 0; i < mem.Len(); i++ {
		if !sameTuple(rel.Row(i), mem.Row(i)) {
			tb.Fatalf("row %d: recovered %v, want %v", i, rel.Row(i), mem.Row(i))
		}
	}
	for pi, p := range testPredicates() {
		want := []int{}
		for i := 0; i < mem.Len(); i++ {
			if p == nil || p.Matches(mem.Schema(), mem.Row(i)) {
				want = append(want, i)
			}
		}
		if got := mem.Select(p); !sameInts(got, want) {
			tb.Fatalf("pred %d (%v): in-memory select %d rows, want %d", pi, p, len(got), len(want))
		}
		if got := rel.Select(p); !sameInts(got, want) {
			tb.Fatalf("pred %d (%v): materialized select %d rows, want %d", pi, p, len(got), len(want))
		}
	}
	if trees {
		assertSameTrees(tb, rel, mem)
	}
}

func sameTuple(a, b relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Str != b[i].Str || math.Float64bits(a[i].Num) != math.Float64bits(b[i].Num) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testWorkload mirrors the category package's canonical workload: hot
// neighborhood/price, warm bedrooms, cold propertytype.
func testWorkload(tb testing.TB) *workload.Stats {
	tb.Helper()
	var queries []string
	hot := []string{"Bellevue, WA", "Redmond, WA"}
	for i := 0; i < 60; i++ {
		queries = append(queries, fmt.Sprintf(
			"SELECT * FROM ListProperty WHERE neighborhood IN ('%s') AND price BETWEEN %d AND %d",
			hot[i%2], 200000+25000*(i%3), 225000+25000*(i%3)))
	}
	for i := 0; i < 25; i++ {
		queries = append(queries, fmt.Sprintf(
			"SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA') AND bedrooms BETWEEN %d AND %d",
			2+i%2, 4))
	}
	for i := 0; i < 15; i++ {
		queries = append(queries, "SELECT * FROM ListProperty WHERE propertytype = 'Condo'")
	}
	w, err := workload.ParseStrings(queries)
	if err != nil {
		tb.Fatalf("workload: %v", err)
	}
	return workload.Preprocess(w, workload.Config{
		Table:     "ListProperty",
		Intervals: map[string]float64{"price": 25000, "bedrooms": 1},
	})
}

// assertSameTrees categorizes both relations with identical deterministic
// options and requires byte-identical flattened trees.
func assertSameTrees(tb testing.TB, got, want *relation.Relation) {
	tb.Helper()
	stats := testWorkload(tb)
	build := func(r *relation.Relation) []byte {
		c := category.NewCategorizer(stats, category.Options{})
		tree, err := c.Categorize(r, nil)
		if err != nil {
			tb.Fatalf("categorize: %v", err)
		}
		type flat struct {
			Depth int
			Label string
			P, Pw float64
			Tset  []int
		}
		var nodes []flat
		tree.Root.Walk(func(n *category.Node, depth int) bool {
			nodes = append(nodes, flat{Depth: depth, Label: n.Label.String(), P: n.P, Pw: n.Pw, Tset: n.Tset})
			return true
		})
		b, err := json.Marshal(struct {
			Levels []string
			Nodes  []flat
		}{tree.LevelAttrs, nodes})
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	g, w := build(got), build(want)
	if string(g) != string(w) {
		tb.Fatalf("category trees differ:\nrecovered: %s\nreference: %s", g, w)
	}
}

// ingest appends rows [from, to) to st, returning the index of the first
// append that failed (== to when none did).
func ingest(st *Store, from, to int) (acked int, err error) {
	for i := from; i < to; i++ {
		if err := st.Append(testTuple(i)); err != nil {
			return i, err
		}
	}
	return to, nil
}

// corrupt flips one byte of the file at off (negative: from the end).
func corrupt(tb testing.TB, path string, off int64) {
	tb.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		tb.Fatal(err)
	}
	if off < 0 {
		off += fi.Size()
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		tb.Fatal(err)
	}
	b[0] ^= 0x41
	if _, err := f.WriteAt(b[:], off); err != nil {
		tb.Fatal(err)
	}
}

// dirFile returns the path of the single file in dir matching prefix.
func dirFile(tb testing.TB, dir, prefix string) string {
	tb.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var match []string
	for _, e := range ents {
		if len(e.Name()) >= len(prefix) && e.Name()[:len(prefix)] == prefix {
			match = append(match, e.Name())
		}
	}
	if len(match) != 1 {
		tb.Fatalf("want one %q* file in %s, found %v", prefix, dir, match)
	}
	return filepath.Join(dir, match[0])
}
