package category

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// The repair tests pin the tentpole invariant of DESIGN.md §13: a tree
// repaired from an old snapshot's trace under new statistics is byte-identical
// — labels, child order, tuple order, probabilities — to a from-scratch build
// under the new statistics. Comparison is exact (float bit-equality via ==),
// stricter than the golden fixture's 1e-9 tolerance, because repair reuses the
// same arithmetic, not merely approximates it.

var repairCfg = workload.Config{
	Table:     "ListProperty",
	Intervals: map[string]float64{"price": 25000, "bedrooms": 1},
}

// learnSeqs are deterministic stand-ins for randomized Learn traffic: each is
// a sequence of queries folded into a cloned snapshot with AddQuery, the exact
// mutation the adaptive serving layer performs.
var learnSeqs = map[string][]string{
	"empty": {},
	"hoodburst": {
		"SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')",
		"SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')",
		"SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')",
		"SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')",
		"SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')",
	},
	"pricedrift": {
		"SELECT * FROM ListProperty WHERE price BETWEEN 210000 AND 260000",
	},
	"newattr": {
		"SELECT * FROM ListProperty WHERE sqft BETWEEN 1000 AND 2000",
	},
	"mixed": {
		"SELECT * FROM ListProperty WHERE bedrooms BETWEEN 1 AND 3",
		"SELECT * FROM ListProperty WHERE propertytype = 'Townhouse'",
		"SELECT * FROM ListProperty WHERE neighborhood IN ('Kirkland, WA') AND price BETWEEN 240000 AND 280000",
	},
}

func init() {
	// storm: 25 queries cycling through every attribute — enough drift to
	// exercise the divergence path on most configurations.
	var storm []string
	for i := 0; i < 25; i++ {
		switch i % 4 {
		case 0:
			storm = append(storm, fmt.Sprintf(
				"SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA') AND price BETWEEN %d AND %d",
				200000+5000*i, 250000+5000*i))
		case 1:
			storm = append(storm, "SELECT * FROM ListProperty WHERE bedrooms BETWEEN 3 AND 5")
		case 2:
			storm = append(storm, "SELECT * FROM ListProperty WHERE propertytype = 'House'")
		default:
			storm = append(storm, fmt.Sprintf(
				"SELECT * FROM ListProperty WHERE price BETWEEN %d AND %d", 205000+7000*i, 230000+7000*i))
		}
	}
	learnSeqs["storm"] = storm
}

type repairScenario struct {
	name string
	opts Options
	sql  string // optional query; empty means browse (whole relation)
}

// repairScenarios mirrors the golden scenario table's cost-based
// configurations (repair applies only to the cost-based technique under the
// independence model) plus shard and depth-bound variants.
func repairScenarios() []repairScenario {
	return []repairScenario{
		{name: "costbased-seq", opts: Options{M: 20, X: 0.1}},
		{name: "costbased-parallel", opts: Options{M: 20, X: 0.1, Shards: 2}},
		{name: "costbased-maxcat", opts: Options{M: 10, X: 0.1, MaxCategories: 3}},
		{name: "costbased-autobuckets", opts: Options{M: 12, X: 0.1, AutoBuckets: true, MaxBuckets: 4}},
		{name: "costbased-query", opts: Options{M: 15, X: 0.1},
			sql: "SELECT * FROM ListProperty WHERE neighborhood IN " +
				"('Bellevue, WA','Redmond, WA','Seattle, WA') AND price BETWEEN 200000 AND 290000"},
		{name: "costbased-sharded", opts: Options{M: 20, X: 0.1, Shards: 4}},
		{name: "costbased-shallow", opts: Options{M: 20, X: 0.1, MaxLevels: 1}},
	}
}

// learnedStats folds seq into a clone of base, the way AdaptiveSystem.learn
// does.
func learnedStats(t *testing.T, base *workload.Stats, seq []string) *workload.Stats {
	t.Helper()
	next := base.Clone()
	for _, sql := range seq {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		next.AddQuery(q, repairCfg)
	}
	return next
}

// assertSameTree compares two trees exactly: identical structure and bitwise
// identical floats.
func assertSameTree(t *testing.T, label string, want, got *Tree) {
	t.Helper()
	w := flattenTree(label, want)
	g := flattenTree(label, got)
	if !reflect.DeepEqual(w, g) {
		if len(w.Nodes) != len(g.Nodes) {
			t.Fatalf("%s: repaired tree has %d nodes, rebuild has %d", label, len(g.Nodes), len(w.Nodes))
		}
		for i := range w.Nodes {
			if !reflect.DeepEqual(w.Nodes[i], g.Nodes[i]) {
				t.Fatalf("%s: node %d differs:\nrepair:  %+v\nrebuild: %+v", label, i, g.Nodes[i], w.Nodes[i])
			}
		}
		t.Fatalf("%s: trees differ: levelAttrs repair=%v rebuild=%v costAll repair=%v rebuild=%v",
			label, g.LevelAttrs, w.LevelAttrs, g.CostAll, w.CostAll)
	}
}

func TestRepairEquivalence(t *testing.T) {
	base := testStats(t)
	r := testRelation(600)
	for _, sc := range repairScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			var q *sqlparse.Query
			rows := r.Select(nil)
			if sc.sql != "" {
				var err error
				q, err = sqlparse.Parse(sc.sql)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				rows = r.Select(q.Predicate())
			}
			c0 := NewCategorizer(base, sc.opts)
			c0.RecordTrace = true
			old, err := c0.CategorizeRows(r, q, rows)
			if err != nil {
				t.Fatalf("build old: %v", err)
			}
			if old.Trace == nil {
				t.Fatalf("RecordTrace build produced no trace")
			}
			for seqName, seq := range learnSeqs {
				next := learnedStats(t, base, seq)
				diff := workload.DiffStats(base, next, 0)
				c1 := NewCategorizer(next, sc.opts)
				c1.RecordTrace = true
				repaired, info, err := c1.Repair(r, q, old, diff)
				if err != nil {
					t.Fatalf("%s: repair: %v", seqName, err)
				}
				if !info.OK || repaired == nil {
					t.Fatalf("%s: repair declined (info=%+v)", seqName, info)
				}
				want, err := c1.CategorizeRows(r, q, rows)
				if err != nil {
					t.Fatalf("%s: rebuild: %v", seqName, err)
				}
				mustValidate(t, repaired)
				assertSameTree(t, sc.name+"/"+seqName, want, repaired)
				if got := info.CopiedNodes + info.RebuiltNodes; got != repaired.NodeCount() {
					t.Errorf("%s: info counts %d+%d != %d nodes",
						seqName, info.CopiedNodes, info.RebuiltNodes, repaired.NodeCount())
				}
				if len(seq) == 0 {
					if !diff.Same {
						t.Fatalf("empty learn sequence diffs as changed")
					}
					if info.RebuiltNodes != 0 {
						t.Errorf("identical stats rebuilt %d nodes; want pure copy", info.RebuiltNodes)
					}
				}
			}
		})
	}
}

// TestRepairChained verifies the trace a repair records is itself
// repair-grade: a second learn step repairs the repaired tree, not a fresh
// build.
func TestRepairChained(t *testing.T) {
	base := testStats(t)
	r := testRelation(600)
	rows := r.Select(nil)
	opts := Options{M: 20, X: 0.1}

	c0 := NewCategorizer(base, opts)
	c0.RecordTrace = true
	t0, err := c0.CategorizeRows(r, nil, rows)
	if err != nil {
		t.Fatal(err)
	}

	s1 := learnedStats(t, base, learnSeqs["hoodburst"])
	c1 := NewCategorizer(s1, opts)
	c1.RecordTrace = true
	t1, info, err := c1.Repair(r, nil, t0, workload.DiffStats(base, s1, 0))
	if err != nil || !info.OK {
		t.Fatalf("first repair: info=%+v err=%v", info, err)
	}
	if t1.Trace == nil {
		t.Fatalf("repair produced no trace")
	}

	s2 := learnedStats(t, s1, learnSeqs["pricedrift"])
	c2 := NewCategorizer(s2, opts)
	c2.RecordTrace = true
	t2, info, err := c2.Repair(r, nil, t1, workload.DiffStats(s1, s2, 0))
	if err != nil || !info.OK {
		t.Fatalf("chained repair: info=%+v err=%v", info, err)
	}
	want, err := c2.CategorizeRows(r, nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, t2)
	assertSameTree(t, "chained", want, t2)
}

func TestRepairDeclines(t *testing.T) {
	base := testStats(t)
	r := testRelation(600)
	rows := r.Select(nil)
	opts := Options{M: 20, X: 0.1}
	next := learnedStats(t, base, learnSeqs["hoodburst"])
	diff := workload.DiffStats(base, next, 0)

	traced := func() *Tree {
		c := NewCategorizer(base, opts)
		c.RecordTrace = true
		tree, err := c.CategorizeRows(r, nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}

	t.Run("traceless", func(t *testing.T) {
		plain, err := NewCategorizer(base, opts).CategorizeRows(r, nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		tree, info, err := NewCategorizer(next, opts).Repair(r, nil, plain, diff)
		if err != nil || tree != nil || info.OK {
			t.Fatalf("traceless repair did not decline: tree=%v info=%+v err=%v", tree, info, err)
		}
	})

	t.Run("nil-diff", func(t *testing.T) {
		tree, info, err := NewCategorizer(next, opts).Repair(r, nil, traced(), nil)
		if err != nil || tree != nil || info.OK {
			t.Fatalf("nil-diff repair did not decline: tree=%v info=%+v err=%v", tree, info, err)
		}
	})

	t.Run("correlated", func(t *testing.T) {
		corrStats, corrIdx := corrWorkload(t)
		c := &Categorizer{Stats: corrStats, Corr: corrIdx, Opts: opts.withDefaults()}
		tree, info, err := c.Repair(r, nil, traced(), diff)
		if err != nil || tree != nil || info.OK {
			t.Fatalf("correlated repair did not decline: tree=%v info=%+v err=%v", tree, info, err)
		}
	})

	t.Run("budget", func(t *testing.T) {
		c := NewCategorizer(base, opts) // identical stats: pure copy path
		c.RecordTrace = true
		c.RepairBudget = 1
		tree, info, err := c.Repair(r, nil, traced(), workload.DiffStats(base, base.Clone(), 0))
		if err != nil || tree != nil || info.OK {
			t.Fatalf("over-budget repair did not decline: tree=%v info=%+v err=%v", tree, info, err)
		}
	})
}

// FuzzRepairEquivalence interprets fuzz bytes as a learn sequence — each byte
// picks one query from a fixed pool — and checks repair(old, diff) ≡
// rebuild(new) exactly.
func FuzzRepairEquivalence(f *testing.F) {
	pool := []string{
		"SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')",
		"SELECT * FROM ListProperty WHERE neighborhood IN ('Kirkland, WA')",
		"SELECT * FROM ListProperty WHERE price BETWEEN 210000 AND 260000",
		"SELECT * FROM ListProperty WHERE price BETWEEN 230000 AND 235000",
		"SELECT * FROM ListProperty WHERE bedrooms BETWEEN 1 AND 2",
		"SELECT * FROM ListProperty WHERE bedrooms BETWEEN 4 AND 6",
		"SELECT * FROM ListProperty WHERE propertytype = 'House'",
		"SELECT * FROM ListProperty WHERE sqft BETWEEN 900 AND 1800",
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{2, 2, 2})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})

	base := testStats(f)
	r := testRelation(300)
	rows := r.Select(nil)
	opts := Options{M: 15, X: 0.1}
	c0 := NewCategorizer(base, opts)
	c0.RecordTrace = true
	old, err := c0.CategorizeRows(r, nil, rows)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		next := base.Clone()
		for _, b := range ops {
			q, err := sqlparse.Parse(pool[int(b)%len(pool)])
			if err != nil {
				t.Fatal(err)
			}
			next.AddQuery(q, repairCfg)
		}
		diff := workload.DiffStats(base, next, 0)
		c1 := NewCategorizer(next, opts)
		c1.RecordTrace = true
		repaired, info, err := c1.Repair(r, nil, old, diff)
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		if !info.OK || repaired == nil {
			t.Fatalf("repair declined: %+v", info)
		}
		want, err := c1.CategorizeRows(r, nil, rows)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		assertSameTree(t, "fuzz", want, repaired)
	})
}
