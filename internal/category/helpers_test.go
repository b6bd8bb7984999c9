package category

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/relation/durable"
	"repro/internal/workload"
)

// testSchema is a miniature ListProperty.
func testSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "neighborhood", Type: relation.Categorical},
		relation.Attribute{Name: "price", Type: relation.Numeric},
		relation.Attribute{Name: "bedrooms", Type: relation.Numeric},
		relation.Attribute{Name: "propertytype", Type: relation.Categorical},
	)
}

// durableRelation writes src's rows through a durable store whose segment
// span is segRows (0 means durable.DefaultSegmentRows) and returns the
// relation the store reads back, checked row by row against src.
func durableRelation(t *testing.T, src *relation.Relation, segRows int) *relation.Relation {
	t.Helper()
	st, err := durable.Create(t.TempDir(), src.Schema(), durable.Options{SegmentRows: segRows, Sync: durable.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < src.Len(); i++ {
		if err := st.Append(src.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	span := segRows
	if span == 0 {
		span = durable.DefaultSegmentRows
	}
	if got, want := st.Stats().Segments, src.Len()/span; got != want {
		t.Fatalf("store holds %d segments, want %d", got, want)
	}
	r, err := st.Relation("ListProperty")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != src.Len() {
		t.Fatalf("store read back %d rows, want %d", r.Len(), src.Len())
	}
	for i := 0; i < src.Len(); i++ {
		got, want := r.Row(i), src.Row(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d: store read back %v, want %v", i, got, want)
			}
		}
	}
	return r
}

// testRelation builds a deterministic homes table with n rows spread over
// the Seattle-area neighborhoods, price 200k-300k, 1-6 bedrooms.
func testRelation(n int) *relation.Relation {
	r := relation.New("ListProperty", testSchema())
	hoods := []string{"Bellevue, WA", "Redmond, WA", "Seattle, WA", "Issaquah, WA", "Kirkland, WA"}
	types := []string{"Single Family", "Condo", "Townhouse"}
	rng := rand.New(rand.NewSource(7))
	r.Grow(n)
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{
			relation.StringValue(hoods[rng.Intn(len(hoods))]),
			relation.NumberValue(200000 + float64(rng.Intn(20))*5000),
			relation.NumberValue(float64(1 + rng.Intn(6))),
			relation.StringValue(types[rng.Intn(len(types))]),
		})
	}
	return r
}

// testStats builds workload statistics where neighborhood and price are hot
// attributes (usage > 0.4), bedrooms warm, propertytype cold. Price ranges
// cluster on 225k/250k/275k boundaries so those are high-goodness
// splitpoints.
func testStats(t testing.TB) *workload.Stats {
	t.Helper()
	var queries []string
	hot := []string{"Bellevue, WA", "Redmond, WA"}
	for i := 0; i < 60; i++ {
		hood := hot[i%2]
		queries = append(queries, fmt.Sprintf(
			"SELECT * FROM ListProperty WHERE neighborhood IN ('%s') AND price BETWEEN %d AND %d",
			hood, 200000+25000*(i%3), 225000+25000*(i%3)))
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
		t.Fatalf("workload: %v", err)
	}
	return workload.Preprocess(w, workload.Config{
		Table:     "ListProperty",
		Intervals: map[string]float64{"price": 25000, "bedrooms": 1},
	})
}

// mustValidate fails the test when the tree breaks a structural invariant.
func mustValidate(t *testing.T, tree *Tree) {
	t.Helper()
	if err := tree.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
}

// leafSizes returns the sizes of all leaf categories.
func leafSizes(tree *Tree) []int {
	var out []int
	tree.Root.Walk(func(n *Node, _ int) bool {
		if n.IsLeaf() {
			out = append(out, n.Size())
		}
		return true
	})
	return out
}
