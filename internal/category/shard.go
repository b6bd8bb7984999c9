package category

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// Shard-parallel categorization (DESIGN.md §12). The per-node work of a
// categorical level — a stable counting sort of the node's tuple-set by
// dictionary code — decomposes exactly: cut the tuple-set into contiguous
// spans, count each span independently, and merge by addition. Bucket sizes,
// presentation ranks, and therefore every cost sum the level-greedy search
// evaluates are functions of the merged counts, so the sharded build commits
// the same plan as the sequential one; the leaf tuple-lists are written by a
// second parallel pass into per-(span, code) cursors whose concatenation is
// the sequential Tset order. The tree is byte-identical, the wall clock is
// divided by the shard count.
//
// Numeric levels are deliberately NOT sharded: splitpoint bucketing reads a
// sorted projection whose tie order is pdqsort's (deterministic, but not a
// total order), and a chunk-sort-and-merge would need a tie-breaking
// comparator that costs more than it saves (see sortedProjection). Since the
// numeric path never depends on the shard count, its output is trivially
// shard-invariant.

// shardMinTset gates the shard-parallel path per node: below this size the
// goroutine handoff and merge overhead beat the saved work, so small nodes
// stay sequential. A var so tests can force tiny nodes through the sharded
// path and pin its equivalence.
var shardMinTset = 2048

// EffectiveShards resolves an Options.Shards value to the fan-out actually
// used: 0 (or negative) means one shard per available CPU.
func EffectiveShards(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ShardCounters accumulates shard-parallel build telemetry. One instance is
// shared by every build of a serving System (like the resilience counters),
// so healthz can report how much of the categorization work actually fans
// out. Pass by pointer; the zero value is ready to use and a nil receiver
// is a no-op, so unwired callers pay nothing.
type ShardCounters struct {
	shardedNodes atomic.Uint64 // nodes partitioned by the parallel path
	seqNodes     atomic.Uint64 // nodes below shardMinTset (or shards=1)
	shardTasks   atomic.Uint64 // span workers launched
}

func (sc *ShardCounters) addShardedNode() {
	if sc != nil {
		sc.shardedNodes.Add(1)
	}
}

func (sc *ShardCounters) addSeqNode() {
	if sc != nil {
		sc.seqNodes.Add(1)
	}
}

func (sc *ShardCounters) addShardTasks(n int) {
	if sc != nil {
		sc.shardTasks.Add(uint64(n))
	}
}

// ShardingStats is the JSON snapshot of ShardCounters plus the effective
// configuration, reported under healthz's "sharding" key.
type ShardingStats struct {
	// GOMAXPROCS is the process's scheduler width — the default shard count.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Shards is the active shard count builds run with.
	Shards int `json:"shards"`
	// ShardedNodes counts tree nodes partitioned by the parallel path.
	ShardedNodes uint64 `json:"shardedNodes"`
	// SeqNodes counts tree nodes partitioned sequentially (too small).
	SeqNodes uint64 `json:"seqNodes"`
	// ShardTasks counts span workers launched across all sharded nodes.
	ShardTasks uint64 `json:"shardTasks"`
}

// Snapshot returns the current counter values with the given configuration.
// Safe on a nil receiver (all counters zero).
func (sc *ShardCounters) Snapshot(shards int) ShardingStats {
	st := ShardingStats{GOMAXPROCS: runtime.GOMAXPROCS(0), Shards: EffectiveShards(shards)}
	if sc != nil {
		st.ShardedNodes = sc.shardedNodes.Load()
		st.SeqNodes = sc.seqNodes.Load()
		st.ShardTasks = sc.shardTasks.Load()
	}
	return st
}

// span is a contiguous range of positions [lo, hi) in a node's Tset.
type span struct{ lo, hi int }

// tsetSpans cuts n positions into k near-equal contiguous spans (the first
// n%k spans get one extra position). Zero-length spans are valid and occur
// when k > n — the merge just sees nothing from them.
func tsetSpans(n, k int) []span {
	spans := make([]span, k)
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + n/k
		if i < n%k {
			hi++
		}
		spans[i] = span{lo: lo, hi: hi}
		lo = hi
	}
	return spans
}

// useShards reports whether a node's tuple-set is worth fanning out.
func (lc *levelContext) useShards(tsetLen int) bool {
	return lc.shards > 1 && tsetLen >= shardMinTset
}

// shardedPartitionNode is the shard-parallel replacement for codePartition's
// per-node body. Phase A counts each span independently and records each
// span's first-encounter code list; a sequential merge walks the spans in
// order, adding counts and assigning global presentation ranks at exactly
// the positions the sequential scan would (a code's global first encounter
// is its local first encounter in the earliest span containing it). Phase B
// fills the bucket arena in parallel through per-(span, code) cursors
// start(c) + Σ_{j'<j} count(j', c), so within every bucket the rows land in
// Tset order — the same stable order the sequential counting sort emits.
//
// sc carries the cross-node counting state (counts all-zero on entry and
// exit, orderOf/rank persistent across the level's nodes) exactly as the
// sequential path does, so sharded and sequential nodes interleave freely.
func (lc *levelContext) shardedPartitionNode(col *relation.CatColumn, attr string, nAttr int, n *Node, sc *catScratch, rank *int32) []childSpec {
	k := lc.shards
	card := col.Card()
	spans := tsetSpans(len(n.Tset), k)
	cnts := make([][]int32, k)
	firsts := make([][]uint32, k)

	// The browsing-mode root's Tset is the identity permutation, so its
	// spans are row spans of the relation itself: count straight off the
	// shard view's code subslices (relation.Shard), skipping the Tset
	// indirection on the largest node of the whole build.
	identity := len(n.Tset) == lc.r.Len() && isIdentity(n.Tset)
	var shView []relation.Shard
	if identity {
		shView = lc.r.Shards(k)
		// Shards reads the row count again: an Append racing the build can
		// grow the relation past the tuple-set in between, and views over
		// rows the node does not hold would overrun the arena.
		identity = shView[k-1].Hi == len(n.Tset)
	}

	var wg sync.WaitGroup
	for j := range spans {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			if ctxExpired(lc.ctx) != nil {
				return // abandoned build; categorize discards the level
			}
			cnt := make([]int32, card)
			var first []uint32
			if identity {
				for _, c := range shView[j].Codes(col) {
					if cnt[c] == 0 {
						first = append(first, c)
					}
					cnt[c]++
				}
			} else {
				for _, row := range n.Tset[spans[j].lo:spans[j].hi] {
					c := col.Codes[row]
					if cnt[c] == 0 {
						first = append(first, c)
					}
					cnt[c]++
				}
			}
			cnts[j], firsts[j] = cnt, first
		}(j)
	}
	lc.counters.addShardTasks(k)
	wg.Wait()

	// Merge: spans in order, codes in local first-encounter order — the
	// global first-encounter order of the sequential scan.
	present := sc.present[:0]
	for j := range spans {
		for _, c := range firsts[j] {
			if sc.counts[c] == 0 {
				if sc.orderOf[c] < 0 {
					sc.orderOf[c] = *rank
					*rank++
				}
				present = append(present, c)
			}
			sc.counts[c] += cnts[j][c]
		}
	}
	sc.present = present // keep any growth for the next node
	sc.ranks = codesByRank{codes: present, rank: sc.orderOf}
	sort.Sort(&sc.ranks)

	// Bucket layout and specs: identical to the sequential path. counts[c]
	// becomes the start offset of value c's bucket.
	arena := make([]int, len(n.Tset))
	specs := make([]childSpec, len(present))
	off := int32(0)
	for i, c := range present {
		v := col.Dict[c]
		p := 1.0
		if nAttr > 0 {
			p = float64(lc.stats.Occ(attr, v)) / float64(nAttr)
			if p > 1 {
				p = 1
			}
		}
		specs[i] = childSpec{label: Label{Kind: LabelValue, Attr: attr, Value: v}, p: p}
		cnt := sc.counts[c]
		sc.counts[c] = off
		off += cnt
	}
	// Turn each span's counts into its write cursor: span j's occurrences of
	// code c start at start(c) plus everything earlier spans will write.
	// After this walk counts[c] is the end offset of c's bucket.
	for j := range spans {
		for _, c := range firsts[j] {
			t := cnts[j][c]
			cnts[j][c] = sc.counts[c]
			sc.counts[c] += t
		}
	}

	for j := range spans {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			if ctxExpired(lc.ctx) != nil {
				return // abandoned build; categorize discards the level
			}
			cur := cnts[j]
			if cur == nil {
				return // phase A bailed on cancellation; nothing to place
			}
			if identity {
				sh := shView[j]
				for i, c := range sh.Codes(col) {
					arena[cur[c]] = sh.Lo + i
					cur[c]++
				}
			} else {
				for _, row := range n.Tset[spans[j].lo:spans[j].hi] {
					c := col.Codes[row]
					arena[cur[c]] = row
					cur[c]++
				}
			}
		}(j)
	}
	lc.counters.addShardTasks(k)
	wg.Wait()

	start := int32(0)
	for i, c := range present {
		end := sc.counts[c]
		specs[i].tset = arena[start:end:end]
		start = end
		sc.counts[c] = 0 // restore the all-zero invariant
	}
	lc.counters.addShardedNode()
	return specs
}
