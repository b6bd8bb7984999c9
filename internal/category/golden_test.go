package category

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sqlparse"
)

// The golden-tree test pins the categorizer's exact output — labels, child
// order, tuple-sets, probabilities, and costs — across representative
// configurations. It exists so structural rewrites of the partition hot path
// (row-wise → columnar, sequential → pooled workers) can prove the chosen
// trees are byte-identical, tie-breaking included. Regenerate with
//
//	go test ./internal/category -run TestGoldenTrees -update-golden
//
// only when an intentional behaviour change is being made.

var updateGolden = flag.Bool("update-golden", false, "rewrite golden tree fixtures")

type goldenNode struct {
	Depth   int     `json:"depth"`
	Label   string  `json:"label"`
	SubAttr string  `json:"subAttr,omitempty"`
	P       float64 `json:"p"`
	Pw      float64 `json:"pw"`
	Tset    []int   `json:"tset"`
}

type goldenTree struct {
	Name       string       `json:"name"`
	LevelAttrs []string     `json:"levelAttrs"`
	CostAll    float64      `json:"costAll"`
	CostOne    float64      `json:"costOne"`
	Nodes      []goldenNode `json:"nodes"`
}

func flattenTree(name string, tree *Tree) goldenTree {
	g := goldenTree{Name: name, LevelAttrs: append([]string(nil), tree.LevelAttrs...),
		CostAll: TreeCostAll(tree), CostOne: TreeCostOne(tree, 0.5)}
	tree.Root.Walk(func(n *Node, depth int) bool {
		g.Nodes = append(g.Nodes, goldenNode{
			Depth: depth, Label: n.Label.String(), SubAttr: n.SubAttr,
			P: n.P, Pw: n.Pw, Tset: append([]int{}, n.Tset...),
		})
		return true
	})
	return g
}

// goldenScenarios builds every pinned tree. All inputs are deterministic.
func goldenScenarios(t *testing.T) []goldenTree {
	return goldenScenariosWith(t, func(o Options) Options { return o })
}

// goldenScenariosWith builds the pinned scenarios with each scenario's
// options passed through mod — the shard-equivalence tests rebuild the whole
// set under different Options.Shards and require byte-identical trees.
func goldenScenariosWith(t *testing.T, mod func(Options) Options) []goldenTree {
	t.Helper()
	stats := testStats(t)
	r := testRelation(600)
	attrs := []string{"neighborhood", "price", "bedrooms", "propertytype"}

	mustTree := func(name string, tree *Tree, err error) goldenTree {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mustValidate(t, tree)
		return flattenTree(name, tree)
	}

	var out []goldenTree

	tree, err := NewCategorizer(stats, mod(Options{M: 20, X: 0.1})).Categorize(r, nil)
	out = append(out, mustTree("costbased-seq", tree, err))

	// The shard-parallel build: byte-identical to costbased-seq at every
	// shard count, so it shares that scenario's golden tree.
	tree, err = NewCategorizer(stats, mod(Options{M: 20, X: 0.1, Shards: 2})).Categorize(r, nil)
	out = append(out, mustTree("costbased-parallel", tree, err))

	tree, err = NewCategorizer(stats, mod(Options{M: 10, X: 0.1, MaxCategories: 3})).Categorize(r, nil)
	out = append(out, mustTree("costbased-maxcat", tree, err))

	tree, err = NewCategorizer(stats, mod(Options{M: 12, X: 0.1, AutoBuckets: true, MaxBuckets: 4})).Categorize(r, nil)
	out = append(out, mustTree("costbased-autobuckets", tree, err))

	q, err := sqlparse.Parse("SELECT * FROM ListProperty WHERE neighborhood IN " +
		"('Bellevue, WA','Redmond, WA','Seattle, WA') AND price BETWEEN 200000 AND 290000")
	if err != nil {
		t.Fatalf("parse query: %v", err)
	}
	rows := r.Select(q.Predicate())
	tree, err = NewCategorizer(stats, mod(Options{M: 15, X: 0.1})).CategorizeRows(r, q, rows)
	out = append(out, mustTree("costbased-query", tree, err))

	tree, err = (&Baseline{Stats: stats, Kind: AttrCost,
		Opts: mod(Options{M: 20, CandidateAttrs: attrs})}).Categorize(r, nil)
	out = append(out, mustTree("attrcost", tree, err))

	tree, err = (&Baseline{Stats: stats, Kind: AttrCost,
		Opts: mod(Options{M: 20, CandidateAttrs: attrs, EquiDepth: true})}).Categorize(r, nil)
	out = append(out, mustTree("attrcost-equidepth", tree, err))

	tree, err = (&Baseline{Stats: stats, Kind: NoCost,
		Opts: mod(Options{M: 20, CandidateAttrs: attrs})}).Categorize(r, nil)
	out = append(out, mustTree("nocost", tree, err))

	corrStats, corrIdx := corrWorkload(t)
	tree, err = (&Categorizer{Stats: corrStats, Corr: corrIdx,
		Opts: mod(Options{M: 10, X: 0.1, MaxBuckets: 2, MinBucket: 1, MinCondSupport: 5})}).Categorize(corrRelation(), nil)
	out = append(out, mustTree("costbased-corr", tree, err))

	return out
}

func goldenPath() string { return filepath.Join("testdata", "golden_trees.json") }

func TestGoldenTrees(t *testing.T) {
	got := goldenScenarios(t)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d scenarios", goldenPath(), len(got))
		return
	}

	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update-golden): %v", err)
	}
	var want []goldenTree
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoding golden fixture: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("scenario count changed: got %d, golden has %d", len(got), len(want))
	}
	for i := range want {
		compareGolden(t, want[i], got[i])
	}
}

// compareGolden checks structural fields exactly and float fields to 1e-9.
func compareGolden(t *testing.T, want, got goldenTree) {
	t.Helper()
	if got.Name != want.Name {
		t.Errorf("scenario %q: name changed to %q", want.Name, got.Name)
		return
	}
	name := want.Name
	if len(got.LevelAttrs) != len(want.LevelAttrs) {
		t.Errorf("%s: level attrs %v, want %v", name, got.LevelAttrs, want.LevelAttrs)
		return
	}
	for i := range want.LevelAttrs {
		if got.LevelAttrs[i] != want.LevelAttrs[i] {
			t.Errorf("%s: level %d attr %q, want %q", name, i+1, got.LevelAttrs[i], want.LevelAttrs[i])
		}
	}
	if !closeTo(got.CostAll, want.CostAll) {
		t.Errorf("%s: CostAll %v, want %v", name, got.CostAll, want.CostAll)
	}
	if !closeTo(got.CostOne, want.CostOne) {
		t.Errorf("%s: CostOne %v, want %v", name, got.CostOne, want.CostOne)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Errorf("%s: %d nodes, want %d", name, len(got.Nodes), len(want.Nodes))
		return
	}
	for i := range want.Nodes {
		w, g := want.Nodes[i], got.Nodes[i]
		if g.Depth != w.Depth || g.Label != w.Label || g.SubAttr != w.SubAttr {
			t.Errorf("%s: node %d is depth=%d %q sub=%q, want depth=%d %q sub=%q",
				name, i, g.Depth, g.Label, g.SubAttr, w.Depth, w.Label, w.SubAttr)
			continue
		}
		if !closeTo(g.P, w.P) || !closeTo(g.Pw, w.Pw) {
			t.Errorf("%s: node %d %q has P=%v Pw=%v, want P=%v Pw=%v", name, i, w.Label, g.P, g.Pw, w.P, w.Pw)
		}
		if len(g.Tset) != len(w.Tset) {
			t.Errorf("%s: node %d %q has %d tuples, want %d", name, i, w.Label, len(g.Tset), len(w.Tset))
			continue
		}
		for k := range w.Tset {
			if g.Tset[k] != w.Tset[k] {
				t.Errorf("%s: node %d %q tset[%d]=%d, want %d (tuple order must be preserved)",
					name, i, w.Label, k, g.Tset[k], w.Tset[k])
				break
			}
		}
	}
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9
}
