package repro_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro"
)

// treeFingerprint renders every structural and probabilistic detail of a tree
// into one comparable string: depth, label, subcategorizing attribute, exact
// float bits of P and Pw, and the ordered tuple-set. Two trees with equal
// fingerprints are byte-identical in everything the serving path promises.
func treeFingerprint(t *repro.Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "attrs=%v k=%b\n", t.LevelAttrs, t.K)
	t.Root.Walk(func(n *repro.Node, depth int) bool {
		fmt.Fprintf(&b, "%d|%s|%s|%b|%b|%v\n",
			depth, n.Label.String(), n.SubAttr, n.P, n.Pw, n.Tset)
		return true
	})
	return b.String()
}

// cachedAdaptiveFixture is adaptiveFixture plus a tree cache, the
// configuration under which a learn turns cached trees into stale entries.
func cachedAdaptiveFixture(t *testing.T, rows, queries int) *repro.AdaptiveSystem {
	t.Helper()
	rel := repro.DemoDataset(rows, 1)
	sys, err := repro.NewSystem(rel, repro.Config{
		WorkloadSQL:      repro.DemoWorkloadSQL(queries, 2),
		Intervals:        repro.DemoIntervals(),
		TreeCacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Adaptive()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// coldTree builds sql's tree the reference way: a fresh system with no tree
// cache over sys's relation and statistics snapshot.
func coldTree(t *testing.T, sys *repro.System, sql string) *repro.Tree {
	t.Helper()
	fresh, err := repro.NewSystem(sys.Relation(), repro.Config{Stats: sys.Stats()})
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := fresh.Serve(context.Background(), sql, repro.CostBased, repro.Options{})
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	return want
}

// TestServeStaleEquivalence drives the full serving path through a learn
// step: the second serve of the same query finds the first generation's tree
// stale, builds from its rows, and must produce exactly the tree a cold
// build under the new statistics would.
func TestServeStaleEquivalence(t *testing.T) {
	a := cachedAdaptiveFixture(t, 3000, 2000)
	ctx := context.Background()
	sql := "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA','Bellevue, WA') AND price BETWEEN 200000 AND 400000"

	sys0 := a.System()
	if _, _, _, err := sys0.Serve(ctx, sql, repro.CostBased, repro.Options{}); err != nil {
		t.Fatalf("cold serve: %v", err)
	}

	learned := []string{
		"SELECT * FROM ListProperty WHERE neighborhood IN ('Redmond, WA')",
		"SELECT * FROM ListProperty WHERE price BETWEEN 300000 AND 500000",
		"SELECT * FROM ListProperty WHERE bedrooms BETWEEN 2 AND 4",
	}
	if err := a.LearnBatch(learned); err != nil {
		t.Fatalf("learn: %v", err)
	}

	sys1 := a.System()
	if sys1.Generation() == sys0.Generation() {
		t.Fatalf("learn did not bump the generation")
	}
	staleBefore, selectsBefore := sys1.CacheStats().Stale, sys1.SelectStats().Selects
	tree, _, hit, err := sys1.Serve(ctx, sql, repro.CostBased, repro.Options{})
	if err != nil {
		t.Fatalf("post-learn serve: %v", err)
	}
	if hit {
		t.Fatalf("post-learn serve reported a hit; the generation moved")
	}
	if got := sys1.CacheStats().Stale - staleBefore; got != 1 {
		t.Fatalf("post-learn serve was offered %d stale entries, want 1", got)
	}
	// The stale entry's rows are the result: the miss runs no selection.
	if got := sys1.SelectStats().Selects - selectsBefore; got != 0 {
		t.Errorf("stale miss ran %d selections, want 0", got)
	}

	// The ground truth: a fresh cacheless system over the same statistics
	// snapshot must build the identical tree from scratch.
	if got, exp := treeFingerprint(tree), treeFingerprint(coldTree(t, sys1, sql)); got != exp {
		t.Errorf("stale-miss serve differs from cold rebuild:\nserved:\n%s\nrebuild:\n%s", got, exp)
	}

	// And the served tree must now be cached under the new generation.
	if _, _, hit, err = sys1.Serve(ctx, sql, repro.CostBased, repro.Options{}); err != nil || !hit {
		t.Fatalf("stale-miss tree not cached: hit=%v err=%v", hit, err)
	}
}

// TestServeStaleAcrossGenerations chains several learns, serving between
// each: every serve must match a cold rebuild of its generation, however
// many generations the entry's rows have been carried through.
func TestServeStaleAcrossGenerations(t *testing.T) {
	a := cachedAdaptiveFixture(t, 2000, 1500)
	ctx := context.Background()
	sql := "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA') AND price BETWEEN 150000 AND 450000"

	staleBefore := a.System().CacheStats().Stale
	const rounds = 4
	for round := 0; round < rounds; round++ {
		sys := a.System()
		tree, _, _, err := sys.Serve(ctx, sql, repro.CostBased, repro.Options{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if treeFingerprint(tree) != treeFingerprint(coldTree(t, sys, sql)) {
			t.Fatalf("round %d: served tree diverged from cold rebuild", round)
		}
		if err := a.Learn(fmt.Sprintf(
			"SELECT * FROM ListProperty WHERE price BETWEEN %d AND %d", 200000+10000*round, 300000+10000*round)); err != nil {
			t.Fatal(err)
		}
	}
	// Every round after the first missed on the previous round's entry.
	if got := a.System().CacheStats().Stale - staleBefore; got != rounds-1 {
		t.Errorf("%d stale misses across %d generations, want %d", got, rounds, rounds-1)
	}
}

// TestServeStaleNeverCrossesAppend: an entry's rows are reused only within
// its data generation. After an Append, a learn makes the cached entry
// stale, but the base key has moved with the data, so the miss is offered
// nothing and selects again, and the new row is categorized.
func TestServeStaleNeverCrossesAppend(t *testing.T) {
	a := cachedAdaptiveFixture(t, 2000, 1500)
	ctx := context.Background()
	sql := "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA') AND price BETWEEN 150000 AND 450000"

	sys0 := a.System()
	tree0, n0, _, err := sys0.Serve(ctx, sql, repro.CostBased, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n0 == 0 {
		t.Fatal("query matches no rows; nothing to copy")
	}
	rel := sys0.Relation()
	rel.MustAppend(append(repro.Tuple(nil), rel.Row(tree0.Root.Tset[0])...))
	if err := a.Learn("SELECT * FROM ListProperty WHERE price BETWEEN 300000 AND 500000"); err != nil {
		t.Fatal(err)
	}

	sys1 := a.System()
	staleBefore, selectsBefore := sys1.CacheStats().Stale, sys1.SelectStats().Selects
	tree, n1, hit, err := sys1.Serve(ctx, sql, repro.CostBased, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("post-append, post-learn serve reported a hit")
	}
	if n1 != n0+1 {
		t.Errorf("result count %d after appending a matching row, want %d", n1, n0+1)
	}
	if got := sys1.CacheStats().Stale - staleBefore; got != 0 {
		t.Errorf("serve after an Append was offered %d stale entries, want 0", got)
	}
	if got := sys1.SelectStats().Selects - selectsBefore; got != 1 {
		t.Errorf("serve after an Append ran %d selections, want 1", got)
	}
	if got, exp := treeFingerprint(tree), treeFingerprint(coldTree(t, sys1, sql)); got != exp {
		t.Errorf("post-append serve differs from cold rebuild:\nserved:\n%s\nrebuild:\n%s", got, exp)
	}
}

// TestLearnBatchServeRace races concurrent serves against a learn publishing
// a new generation (run under -race). Every observed tree must be exactly the
// old generation's tree or the new one's — never a blend — and singleflight
// must keep the distinct computations bounded by the number of generations.
func TestLearnBatchServeRace(t *testing.T) {
	a := cachedAdaptiveFixture(t, 1500, 1000)
	ctx := context.Background()
	sql := "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA','Redmond, WA') AND price BETWEEN 150000 AND 500000"

	// Pin the old generation's tree, and precompute the new generation's on a
	// side system sharing the learned statistics.
	tree0, _, _, err := a.System().Serve(ctx, sql, repro.CostBased, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref0 := treeFingerprint(tree0)
	missesBefore := a.System().CacheStats().Misses

	learned := []string{
		"SELECT * FROM ListProperty WHERE bedrooms BETWEEN 3 AND 5",
		"SELECT * FROM ListProperty WHERE price BETWEEN 250000 AND 350000",
	}

	const servers = 8
	start := make(chan struct{})
	results := make([][]string, servers)
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < 6; j++ {
				tree, _, _, err := a.System().Serve(ctx, sql, repro.CostBased, repro.Options{})
				if err != nil {
					t.Errorf("server %d: %v", i, err)
					return
				}
				results[i] = append(results[i], treeFingerprint(tree))
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := a.LearnBatch(learned); err != nil {
			t.Errorf("learn: %v", err)
		}
	}()
	close(start)
	wg.Wait()

	sys1 := a.System()
	tree1, _, _, err := sys1.Serve(ctx, sql, repro.CostBased, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref1 := treeFingerprint(tree1)

	for i, fps := range results {
		for j, fp := range fps {
			if fp != ref0 && fp != ref1 {
				t.Fatalf("server %d serve %d observed a tree matching neither generation", i, j)
			}
		}
	}
	// Singleflight across the race: the only computations are one per
	// generation of this key (the gen-0 build happened before the snapshot).
	if misses := sys1.CacheStats().Misses - missesBefore; misses > 1 {
		t.Errorf("%d distinct computations for one query across one learn; singleflight should bound it to 1", misses)
	}
}
