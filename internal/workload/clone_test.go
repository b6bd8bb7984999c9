package workload

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sqlparse"
)

func TestStatsCloneIsDeepAndEquivalent(t *testing.T) {
	w, err := ParseStrings([]string{
		"SELECT * FROM T WHERE a IN ('x','y') AND p BETWEEN 10 AND 20",
		"SELECT * FROM T WHERE p >= 15",
		"SELECT * FROM T WHERE a = 'x'",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{DefaultInterval: 5}
	orig := Preprocess(w, cfg)
	cl := orig.Clone()

	// Equivalence on every reader surface.
	if cl.N() != orig.N() || cl.NAttr("a") != orig.NAttr("a") || cl.Occ("a", "x") != orig.Occ("a", "x") {
		t.Fatal("clone disagrees with original")
	}
	if !reflect.DeepEqual(cl.AttrsByUsage(), orig.AttrsByUsage()) {
		t.Fatalf("attr order: %v vs %v", cl.AttrsByUsage(), orig.AttrsByUsage())
	}
	if cl.NOverlapRange("p", 10, 20) != orig.NOverlapRange("p", 10, 20) {
		t.Fatal("range index disagrees")
	}

	// Deepness: mutating the clone must not leak into the original.
	beforeN, beforeOcc := orig.N(), orig.Occ("a", "x")
	beforeOverlap := orig.NOverlapRange("p", 0, 100)
	beforeGoodness := orig.Splits("p").Goodness(15)
	cl.AddQuery(sqlparse.MustParse("SELECT * FROM T WHERE a = 'x' AND p = 15"), cfg)
	if orig.N() != beforeN || orig.Occ("a", "x") != beforeOcc {
		t.Fatal("AddQuery on clone mutated original counts")
	}
	if orig.NOverlapRange("p", 0, 100) != beforeOverlap {
		t.Fatal("AddQuery on clone mutated original range index")
	}
	if orig.Splits("p").Goodness(15) != beforeGoodness {
		t.Fatal("AddQuery on clone mutated original splitpoints")
	}
	if cl.N() != beforeN+1 {
		t.Fatal("clone did not learn")
	}
}

// TestStatsCloneOriginalWritesStayPrivate: Clone gives both sides their own
// tables to write, so learning on the original after a Clone leaves the
// clone as it was.
func TestStatsCloneOriginalWritesStayPrivate(t *testing.T) {
	w, err := ParseStrings([]string{
		"SELECT * FROM T WHERE a IN ('x') AND p BETWEEN 10 AND 20",
		"SELECT * FROM T WHERE p >= 15",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{DefaultInterval: 5}
	orig := Preprocess(w, cfg)
	cl := orig.Clone()
	want := dumpStats(cl)
	orig.AddQuery(sqlparse.MustParse("SELECT * FROM T WHERE a = 'x' AND p = 15 AND q IN ('z')"), cfg)
	if got := dumpStats(cl); got != want {
		t.Fatalf("AddQuery on the original changed its clone:\n%s\nwant\n%s", got, want)
	}
	if orig.N() != 3 || orig.NAttr("q") != 1 {
		t.Fatalf("original did not learn: N %d, NAttr(q) %d", orig.N(), orig.NAttr("q"))
	}
}

// TestCondIndexCloneIsIndependent: Add on a clone never changes what the
// original answers, and Add on the original never changes a clone — also
// when both sides seal a chunk into a chunk list they share.
func TestCondIndexCloneIsIndependent(t *testing.T) {
	cfg := Config{Table: "T"}
	add := func(idx *CondIndex, list []*sqlparse.Query, from, n int) []*sqlparse.Query {
		list = slices.Clone(list)
		for i := from; i < from+n; i++ {
			q := sqlparse.MustParse(fmt.Sprintf("SELECT * FROM T WHERE a IN ('v%d') AND p BETWEEN %d AND %d", i%7, i%50, i%50+10))
			idx.Add(q, cfg)
			list = append(list, q)
		}
		idx.Add(sqlparse.MustParse("SELECT * FROM Other WHERE a = 'v1'"), cfg) // filtered out
		return list
	}

	small := &CondIndex{}
	smallList := add(small, nil, 0, 1)
	smallClone := small.Clone()
	smallCloneList := add(smallClone, smallList, 1, 1)
	checkCondIndex(t, "small original", small, smallList)
	checkCondIndex(t, "small clone", smallClone, smallCloneList)

	orig := &CondIndex{}
	origList := add(orig, nil, 0, 4*condChunk-2) // three sealed chunks, 254 open
	c1 := orig.Clone()
	c1List := add(c1, origList, 1000, 5) // each side seals its own fourth chunk
	origList = add(orig, origList, 2000, 5)
	c2 := c1.Clone()
	c2List := add(c2, c1List, 3000, condChunk+3)
	c1List = add(c1, c1List, 4000, 2)
	checkCondIndex(t, "original", orig, origList)
	checkCondIndex(t, "clone", c1, c1List)
	checkCondIndex(t, "clone of clone", c2, c2List)
	if len(orig.sealed) != 4 || len(c1.sealed) != 4 || len(c2.sealed) != 5 {
		t.Fatalf("sealed chunks %d/%d/%d; want 4/4/5 (each side crossed a chunk boundary)", len(orig.sealed), len(c1.sealed), len(c2.sealed))
	}
}

// checkCondIndex compares every CondIndex reader with brute force over the
// queries the index should hold, in order.
func checkCondIndex(t *testing.T, name string, idx *CondIndex, want []*sqlparse.Query) {
	t.Helper()
	if idx.N() != len(want) {
		t.Fatalf("%s: N = %d; want %d", name, idx.N(), len(want))
	}
	for i, q := range want {
		if idx.query(i) != q {
			t.Fatalf("%s: query %d is %v; want %v", name, i, idx.query(i), q)
		}
	}
	all := idx.AllIDs()
	if len(all) != len(want) || (len(all) > 0 && all[len(all)-1] != len(want)-1) {
		t.Fatalf("%s: AllIDs has %d ids; want 0..%d", name, len(all), len(want)-1)
	}
	steps := []PathPred{
		{Attr: "a", Value: "v3"},
		{Attr: "p", IsRange: true, Lo: 5, Hi: 12},
		{Attr: "a", Values: []string{"v1", "v2"}},
	}
	children := []PathPred{
		{Attr: "p", IsRange: true, Lo: 0, Hi: 20},
		{Attr: "p", IsRange: true, Lo: 40, Hi: 70},
	}
	for _, step := range steps {
		var wantIDs []int
		wantN, wantOverlap := 0, make([]int, len(children))
		for i, q := range want {
			if !step.Matches(q) {
				continue
			}
			wantIDs = append(wantIDs, i)
			if q.Cond("p") == nil {
				continue
			}
			wantN++
			for c := range children {
				if children[c].Matches(q) {
					wantOverlap[c]++
				}
			}
		}
		ids := idx.FilterCompatible(all, step)
		if !slices.Equal(ids, wantIDs) {
			t.Fatalf("%s: FilterCompatible(%+v) = %v; want %v", name, step, ids, wantIDs)
		}
		n, overlap := idx.CountChildren(ids, "p", children)
		if n != wantN || !slices.Equal(overlap, wantOverlap) {
			t.Fatalf("%s: CountChildren = %d %v; want %d %v", name, n, overlap, wantN, wantOverlap)
		}
	}
}
