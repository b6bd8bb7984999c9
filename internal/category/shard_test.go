package category

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/relation"
)

// forceSharding drops the shard gate so even the small test relations take
// the parallel path, and restores it afterwards.
func forceSharding(t testing.TB) {
	t.Helper()
	old := shardMinTset
	shardMinTset = 1
	t.Cleanup(func() { shardMinTset = old })
}

// TestShardedGoldenEquivalence rebuilds every golden scenario with
// Options.Shards 2, 3, and 8 (shardMinTset forced to 1 so every node takes
// the parallel path; 600 rows is non-divisible by 8) and requires each tree
// to be identical — structure, labels, child order, tuple order,
// probabilities, costs — to the Shards=1 sequential build.
func TestShardedGoldenEquivalence(t *testing.T) {
	forceSharding(t)
	base := goldenScenariosWith(t, func(o Options) Options {
		o.Shards = 1
		return o
	})
	for _, shards := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got := goldenScenariosWith(t, func(o Options) Options {
				o.Shards = shards
				return o
			})
			if len(got) != len(base) {
				t.Fatalf("scenario count %d, want %d", len(got), len(base))
			}
			for i := range base {
				compareGolden(t, base[i], got[i])
			}
		})
	}
}

// TestShardedEmptySpans pins the empty-shard edge: with more shards than any
// node has tuples, the trailing spans are zero-length and must contribute
// nothing — the tree still matches the sequential build exactly.
func TestShardedEmptySpans(t *testing.T) {
	forceSharding(t)
	stats := testStats(t)
	r := testRelation(40) // every node is far smaller than 64 shards
	build := func(shards int) goldenTree {
		tree, err := NewCategorizer(stats, Options{M: 5, X: 0.1, Shards: shards}).Categorize(r, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		mustValidate(t, tree)
		return flattenTree("empty-spans", tree)
	}
	base := build(1)
	for _, shards := range []int{8, 64} {
		got := build(shards)
		compareGolden(t, base, got)
	}
}

// TestShardCountersAccumulate checks the telemetry plumbing: a sharded build
// with a wired Counters must record sharded nodes and span tasks, and the
// snapshot must reflect the effective configuration.
func TestShardCountersAccumulate(t *testing.T) {
	forceSharding(t)
	stats := testStats(t)
	r := testRelation(600)
	c := NewCategorizer(stats, Options{M: 20, X: 0.1, Shards: 4})
	c.Counters = &ShardCounters{}
	if _, err := c.Categorize(r, nil); err != nil {
		t.Fatal(err)
	}
	st := c.Counters.Snapshot(4)
	if st.Shards != 4 {
		t.Errorf("snapshot shards = %d, want 4", st.Shards)
	}
	if st.GOMAXPROCS < 1 {
		t.Errorf("snapshot GOMAXPROCS = %d", st.GOMAXPROCS)
	}
	if st.ShardedNodes == 0 {
		t.Error("no sharded nodes recorded despite forced sharding")
	}
	if st.ShardTasks < st.ShardedNodes {
		t.Errorf("shardTasks=%d < shardedNodes=%d", st.ShardTasks, st.ShardedNodes)
	}
	// A nil counter set must be a no-op, not a crash, and snapshot cleanly.
	var nilc *ShardCounters
	if got := nilc.Snapshot(0); got.ShardedNodes != 0 || got.Shards < 1 {
		t.Errorf("nil snapshot = %+v", got)
	}
}

// TestConcurrentCategorizeAppend races categorization builds against row
// appends — and therefore segment seals and incremental projection/index
// extension — on a shared relation; run under -race (ci.sh's shard pass
// does). The RCU row store guarantees each build sees a consistent
// snapshot: row indices drawn from an older snapshot stay valid because
// rows only append. Runs at segment sizes 1 (every append seals), 64
// (seals race mid-build), and the default (tail-only churn).
func TestConcurrentCategorizeAppend(t *testing.T) {
	forceSharding(t)
	stats := testStats(t)
	for _, segRows := range []int{1, 64, 0} {
		t.Run(fmt.Sprintf("segRows=%d", segRows), func(t *testing.T) {
			forceSegmentRows(t, segRows)
			r := testRelation(600)
			template := r.Row(0)

			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Bounded: an unthrottled append loop grows the relation by
				// millions of rows and the builds never finish. 2000 appends
				// racing 8 builds is plenty for the race detector.
				for i := 0; i < 2000; i++ {
					select {
					case <-stop:
						return
					default:
					}
					row := append(relation.Tuple(nil), template...)
					r.MustAppend(row)
					runtime.Gosched()
				}
			}()

			for i := 0; i < 8; i++ {
				c := NewCategorizer(stats, Options{M: 20, X: 0.1, Shards: 4})
				tree, err := c.Categorize(r, nil)
				if err != nil {
					t.Fatalf("build %d: %v", i, err)
				}
				if err := tree.Validate(); err != nil {
					t.Fatalf("build %d: %v", i, err)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestSegmentGoldenEquivalence is the iron contract at the tree layer: the
// full golden scenario set rebuilt at segment sizes 1 and 64 — where the
// 600-row test relation seals 600 and 9 segments respectively — must be
// identical in every field to the default-segment build (which never seals
// at this scale).
func TestSegmentGoldenEquivalence(t *testing.T) {
	base := goldenScenarios(t)
	for _, segRows := range []int{1, 64} {
		t.Run(fmt.Sprintf("segRows=%d", segRows), func(t *testing.T) {
			forceSegmentRows(t, segRows)
			got := goldenScenarios(t)
			if len(got) != len(base) {
				t.Fatalf("scenario count %d, want %d", len(got), len(base))
			}
			for i := range base {
				compareGolden(t, base[i], got[i])
			}
		})
	}
}

// FuzzShardEquivalence drives random (rows, M, shards) triples through both
// build paths and requires identical trees. The interesting space is small
// relations with shard counts around and above node sizes — exactly where
// span bookkeeping can go wrong.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(uint16(60), uint8(5), uint8(2))
	f.Add(uint16(137), uint8(10), uint8(3))
	f.Add(uint16(600), uint8(20), uint8(8))
	f.Add(uint16(23), uint8(3), uint8(7))
	f.Add(uint16(301), uint8(12), uint8(16))

	old := shardMinTset
	shardMinTset = 1
	f.Cleanup(func() { shardMinTset = old })

	stats := testStats(f)
	f.Fuzz(func(t *testing.T, rows uint16, m, shards uint8) {
		nRows := int(rows)%1000 + 20
		optM := int(m)%30 + 2
		nShards := int(shards)%32 + 2
		r := testRelation(nRows)
		build := func(s int) string {
			tree, err := NewCategorizer(stats, Options{M: optM, X: 0.1, Shards: s}).Categorize(r, nil)
			if err != nil {
				t.Fatalf("shards=%d: %v", s, err)
			}
			data, err := json.Marshal(flattenTree("fuzz", tree))
			if err != nil {
				t.Fatal(err)
			}
			return string(data)
		}
		seq := build(1)
		par := build(nShards)
		if seq != par {
			t.Errorf("rows=%d M=%d shards=%d: sharded tree differs from sequential\nseq: %s\npar: %s",
				nRows, optM, nShards, seq, par)
		}
	})
}
