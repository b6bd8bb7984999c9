package relation

import (
	"container/list"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Vectorized selection (DESIGN.md §9). Relation.Select evaluates each
// conjunct of a WHERE clause directly over the columnar projections
// (column.go) instead of tuple-at-a-time through Predicate.Matches, which
// pays a schema lookup plus a map probe per row per conjunct:
//
//   - IN conjuncts resolve their member strings to dictionary codes once,
//     then run a branch-light pass over the []uint32 code column testing
//     membership in a code bitset;
//   - Range conjuncts scan the dense []float64 column;
//   - each conjunct materializes as a word-packed Bitmap; conjuncts combine
//     cheapest-selectivity-first with word-wise AND, and the final bitmap
//     unpacks to the ascending row list the categorizer consumes.
//
// Conjunct bitmaps are memoized in a small bounded per-relation LRU keyed by
// the conjunct's canonical signature (the same canonical spelling
// internal/sqlparse uses for query signatures — see SigNum), so distinct
// queries sharing a conjunct — the star-schema workload pattern the paper
// targets — reuse its bitmap. Entries are stamped with the relation's data
// generation; an entry whose stamp lags the current generation is not
// dropped but *extended* — the builder copies its words and evaluates only
// the rows appended since (DESIGN.md §14), so append churn costs O(new
// rows) per cached conjunct instead of a full rebuild.
//
// Before scanning, the builders consult the sealed segments' zone maps
// (zonemap.go): a sealed segment whose summary proves no row can match the
// conjunct is skipped outright, and the surviving spans are scanned with
// word-aligned OR kernels.
//
// The Predicate interface is sealed (predicate.go): every predicate is an
// And/In/Range/True tree, so this engine is the only selection path and its
// results are exactly Predicate.Matches'.

// maxConjunctBitmaps bounds the per-relation conjunct-bitmap cache. At the
// paper's 20k-row scale one bitmap is ~2.5 KiB, so the cache tops out around
// 320 KiB per relation.
const maxConjunctBitmaps = 128

// parallelScanRows is the row threshold above which full-column scans fan
// out across GOMAXPROCS goroutines in word-aligned chunks.
const parallelScanRows = 16384

// SelectStats is a point-in-time snapshot of a relation's selection
// counters, surfaced through the server's healthz endpoint.
type SelectStats struct {
	// Selects counts non-nil-predicate Select calls.
	Selects uint64 `json:"selects"`
	// SelectNanos is the cumulative wall time spent inside Select.
	SelectNanos uint64 `json:"selectNanos"`
	// ConjunctHits / ConjunctMisses count conjunct-bitmap cache lookups;
	// ConjunctExtended counts lookups that found a stale entry and extended
	// it over appended rows; ConjunctEntries is the cache's occupancy.
	ConjunctHits     uint64 `json:"conjunctHits"`
	ConjunctMisses   uint64 `json:"conjunctMisses"`
	ConjunctExtended uint64 `json:"conjunctExtended"`
	ConjunctEntries  int    `json:"conjunctEntries"`
}

// vselState is the vectorized engine's per-relation mutable state: the
// bounded conjunct-bitmap LRU and the selection counters.
type vselState struct {
	mu sync.Mutex
	//lint:guardedby mu
	ll *list.List // front = most recently used
	//lint:guardedby mu
	table map[string]*list.Element

	selects  atomic.Uint64
	nanos    atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
	extended atomic.Uint64
}

// conjEntry is one cached conjunct bitmap. gen stamps the relation data
// generation the bitmap was built against; a stale stamp means rows were
// appended since — the entry's bitmap then seeds an extension build that
// evaluates only the rows past its coverage.
type conjEntry struct {
	sig   string
	bm    *Bitmap
	count int
	gen   uint64
}

// SelectStats returns a snapshot of the selection counters.
func (r *Relation) SelectStats() SelectStats {
	s := SelectStats{
		Selects:          r.vsel.selects.Load(),
		SelectNanos:      r.vsel.nanos.Load(),
		ConjunctHits:     r.vsel.hits.Load(),
		ConjunctMisses:   r.vsel.misses.Load(),
		ConjunctExtended: r.vsel.extended.Load(),
	}
	r.vsel.mu.Lock()
	if r.vsel.ll != nil {
		s.ConjunctEntries = r.vsel.ll.Len()
	}
	r.vsel.mu.Unlock()
	return s
}

// DataGeneration returns the relation's mutation counter: it increments on
// every Append, so derived artifacts (conjunct bitmaps, memoized trees) can
// be stamped against the data they were built from.
func (r *Relation) DataGeneration() uint64 { return r.dataGen.Load() }

// dropConjuncts empties the conjunct-bitmap cache. No longer on the Append
// path (stale entries extend instead); retained as the drop-everything
// baseline for the segment benchmarks and invalidation tests.
func (r *Relation) dropConjuncts() {
	r.vsel.mu.Lock()
	if r.vsel.ll != nil {
		r.vsel.ll.Init()
		clear(r.vsel.table)
	}
	r.vsel.mu.Unlock()
}

// vectorSelect evaluates pred through the vectorized engine, returning
// exactly the ascending row list a row-wise Predicate.Matches scan would.
func (r *Relation) vectorSelect(pred Predicate) []int {
	conjs := pred.appendConjuncts(nil)
	if len(conjs) == 0 {
		// TRUE / empty conjunction: every row matches. Copy the cached
		// identity so the caller still owns its slice.
		id := r.identityRows()
		out := make([]int, len(id))
		copy(out, id)
		return out
	}
	bms := make([]*conjEntry, 0, len(conjs))
	for _, c := range conjs {
		e := r.conjunctBitmap(c)
		if e == nil || e.count == 0 {
			// A nil entry references a missing or mistyped attribute:
			// Matches rejects every row, so the selection is empty.
			return []int{}
		}
		bms = append(bms, e)
	}
	if len(bms) == 1 {
		return bms[0].bm.Rows()
	}
	// AND cheapest-selectivity-first: starting from the sparsest bitmap
	// keeps the running intersection small and lets an empty intermediate
	// short-circuit the rest.
	sort.Slice(bms, func(i, j int) bool { return bms[i].count < bms[j].count })
	res := bms[0].bm.Clone()
	n := bms[0].count
	for _, e := range bms[1:] {
		n = res.And(e.bm)
		if n == 0 {
			return []int{}
		}
	}
	return res.AppendRows(make([]int, 0, n))
}

// conjunctBitmap returns the In or Range conjunct's bitmap entry, from the
// cache when possible. A nil entry means the conjunct can never match
// (missing or mistyped attribute).
func (r *Relation) conjunctBitmap(c Predicate) *conjEntry {
	var sig string
	switch p := c.(type) {
	case *In:
		pos, ok := r.schema.Lookup(p.Attr)
		if !ok || r.schema.Attr(pos).Type != Categorical {
			return nil
		}
		sig = inSignature(p)
	case *Range:
		pos, ok := r.schema.Lookup(p.Attr)
		if !ok || r.schema.Attr(pos).Type != Numeric {
			return nil
		}
		sig = rangeSignature(p)
	}
	// The generation is read BEFORE the column snapshot inside the builder:
	// if an Append races the build, the entry is stamped with the older
	// generation and the next lookup extends it again (a cheap no-op when
	// the bitmap already covers the rows). Stamping after the snapshot could
	// publish a fresh-looking entry missing rows.
	gen := r.dataGen.Load()
	prevE := r.lookupConjunct(sig)
	if prevE != nil && prevE.gen == gen {
		r.vsel.hits.Add(1)
		return prevE
	}
	var prev *Bitmap
	if prevE != nil {
		prev = prevE.bm
		r.vsel.extended.Add(1)
	} else {
		r.vsel.misses.Add(1)
	}
	var bm *Bitmap
	switch p := c.(type) {
	case *In:
		bm = r.buildInBitmap(p, prev)
	case *Range:
		bm = r.buildRangeBitmap(p, prev)
	}
	e := &conjEntry{sig: sig, bm: bm, count: bm.Count(), gen: gen}
	r.insertConjunct(e)
	return e
}

// lookupConjunct returns the signature's entry regardless of generation
// staleness (the caller decides between hit, extension, and miss),
// refreshing LRU recency.
func (r *Relation) lookupConjunct(sig string) *conjEntry {
	r.vsel.mu.Lock()
	defer r.vsel.mu.Unlock()
	if r.vsel.table == nil {
		return nil
	}
	el, ok := r.vsel.table[sig]
	if !ok {
		return nil
	}
	r.vsel.ll.MoveToFront(el)
	return el.Value.(*conjEntry)
}

// insertConjunct stores a freshly built entry, evicting from the cold end
// past the cap. Concurrent misses on one signature may both build; the
// second insert wins, which is harmless — the bitmaps are identical.
func (r *Relation) insertConjunct(e *conjEntry) {
	r.vsel.mu.Lock()
	defer r.vsel.mu.Unlock()
	if r.vsel.ll == nil {
		r.vsel.ll = list.New()
		r.vsel.table = make(map[string]*list.Element)
	}
	if el, ok := r.vsel.table[e.sig]; ok {
		el.Value = e
		r.vsel.ll.MoveToFront(el)
		return
	}
	r.vsel.table[e.sig] = r.vsel.ll.PushFront(e)
	for r.vsel.ll.Len() > maxConjunctBitmaps {
		cold := r.vsel.ll.Back()
		r.vsel.ll.Remove(cold)
		delete(r.vsel.table, cold.Value.(*conjEntry).sig)
	}
}

// seedExtension copies prev's words into bm and returns the first row the
// build must evaluate: 0 for a cold build, prev's coverage for an
// extension. prev's universe never exceeds bm's (rows are only appended),
// but a racing seal makes the guard cheap insurance.
func seedExtension(bm, prev *Bitmap) int {
	if prev == nil || prev.n > bm.n {
		return 0
	}
	copy(bm.words, prev.words)
	return prev.n
}

// buildInBitmap evaluates an IN conjunct over the dictionary-coded column:
// member strings resolve to codes once (binary search in the sorted value
// table), then a pass over the code column tests membership in a dict-sized
// bitset — no string hashing per row. With a prev bitmap, only rows past
// its coverage are evaluated (a member-value verdict never changes for a
// sealed row, and dictionary remaps renumber codes, not values). Sealed
// segments whose zone map contains no member value are skipped.
func (r *Relation) buildInBitmap(p *In, prev *Bitmap) *Bitmap {
	col, err := r.CatColumn(p.Attr)
	if err != nil {
		// Unreachable: the caller validated the attribute.
		return NewBitmap(r.Len())
	}
	bm := NewBitmap(len(col.Codes))
	start := seedExtension(bm, prev)
	if len(p.Values) == 0 {
		return bm
	}
	memberCodes := make([]uint64, (len(col.Dict)+63)>>6)
	any := false
	for v := range p.Values {
		if c, ok := col.Code(v); ok {
			memberCodes[c>>6] |= 1 << (c & 63)
			any = true
		}
	}
	if !any {
		return bm
	}
	members := p.SortedValues()
	key := lower(p.Attr)
	spans := r.zoneSpans(start, len(col.Codes), func(seg *segment) bool {
		return seg.catZone(key, col).canMatchIn(members)
	})
	codes := col.Codes
	for _, sp := range spans {
		scanSpan(sp.lo, sp.hi, func(a, b int) {
			for i := a; i < b; {
				wi := i >> 6
				end := min((wi+1)<<6, b)
				var w uint64
				for ; i < end; i++ {
					c := codes[i]
					w |= (memberCodes[c>>6] >> (c & 63) & 1) << (uint(i) & 63)
				}
				bm.words[wi] |= w
			}
		})
	}
	return bm
}

// buildRangeBitmap evaluates a Range conjunct over the dense []float64
// column, replicating Range.Matches' comparisons exactly (NaN values and
// NaN bounds included) — skipping sealed segments whose min/max zone proves
// no row can match, and, with a prev bitmap, evaluating only rows past its
// coverage.
func (r *Relation) buildRangeBitmap(p *Range, prev *Bitmap) *Bitmap {
	col, err := r.NumColumn(p.Attr)
	if err != nil {
		// Unreachable: the caller validated the attribute.
		return NewBitmap(r.Len())
	}
	bm := NewBitmap(len(col))
	start := seedExtension(bm, prev)
	pLo, pHi, hiInc := p.Lo, p.Hi, p.HiInc
	key := lower(p.Attr)
	spans := r.zoneSpans(start, len(col), func(seg *segment) bool {
		return seg.numZone(key, col).canMatchRange(pLo, pHi, hiInc)
	})
	for _, sp := range spans {
		scanSpan(sp.lo, sp.hi, func(a, b int) {
			for i := a; i < b; {
				wi := i >> 6
				end := min((wi+1)<<6, b)
				var w uint64
				if hiInc {
					for ; i < end; i++ {
						v := col[i]
						// Exactly Range.Matches: !(v < Lo) && v <= Hi.
						if !(v < pLo) && v <= pHi {
							w |= 1 << (uint(i) & 63)
						}
					}
				} else {
					for ; i < end; i++ {
						v := col[i]
						if !(v < pLo) && v < pHi {
							w |= 1 << (uint(i) & 63)
						}
					}
				}
				bm.words[wi] |= w
			}
		})
	}
	return bm
}

// chunkScan runs fn over [0, n) — sequentially below the parallel
// threshold, otherwise split into word-aligned chunks across GOMAXPROCS
// goroutines. Chunk boundaries are multiples of 64, so concurrent chunks
// never share a bitmap word.
func chunkScan(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < parallelScanRows || workers <= 1 {
		fn(0, n)
		return
	}
	words := (n + 63) >> 6
	chunk := (words + workers - 1) / workers << 6
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// scanSpan is chunkScan over an arbitrary window [a, b): sequential below
// the parallel threshold, otherwise split at *absolute* multiples of 64 so
// concurrent chunks never share a bitmap word even when a is mid-word (an
// extension build starts at the previous bitmap's coverage).
func scanSpan(a, b int, fn func(lo, hi int)) {
	if a >= b {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if b-a < parallelScanRows || workers <= 1 {
		fn(a, b)
		return
	}
	words := (b - a + 63) >> 6
	chunk := (words + workers - 1) / workers << 6
	var wg sync.WaitGroup
	for lo := a; lo < b; {
		hi := min((lo&^63)+chunk, b)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// inSignature renders an IN conjunct canonically — lowercased attribute,
// members deduplicated and sorted — in the same spelling
// internal/sqlparse's Query.Signature uses for categorical conditions, so a
// conjunct shared across differently-spelled queries keys one cache slot.
func inSignature(p *In) string {
	var b strings.Builder
	b.Grow(32)
	b.WriteString(strings.ToLower(p.Attr))
	b.WriteString("\x1din")
	for _, v := range p.SortedValues() {
		b.WriteByte('\x1f')
		b.WriteString(v)
	}
	return b.String()
}

// rangeSignature renders a Range conjunct in the spelling-independent
// interval form of internal/sqlparse's signatures. Relation ranges always
// include their lower bound, so the bracket is fixed.
func rangeSignature(p *Range) string {
	var b strings.Builder
	b.Grow(32)
	b.WriteString(strings.ToLower(p.Attr))
	b.WriteString("\x1drg\x1f")
	if math.IsInf(p.Lo, -1) {
		b.WriteString("(-inf")
	} else {
		b.WriteByte('[')
		b.WriteString(SigNum(p.Lo))
	}
	b.WriteByte(',')
	if math.IsInf(p.Hi, 1) {
		b.WriteString("+inf")
	} else {
		b.WriteString(SigNum(p.Hi))
	}
	// The bracket always reflects HiInc: even at Hi=+Inf the two variants
	// differ (a +Inf value matches `<= +Inf` but not `< +Inf`), so they must
	// not share a cache slot. sqlparse-built predicates with an unbounded
	// upper end always carry HiInc=false, matching its `+inf)` spelling.
	if p.HiInc {
		b.WriteByte(']')
	} else {
		b.WriteByte(')')
	}
	return b.String()
}

// SigNum renders a float64 canonically for signature keys: -0 folds into 0,
// integral values print without exponent or trailing zeros, and everything
// else uses the shortest round-trip form. internal/sqlparse uses this for
// query signatures and the conjunct-bitmap cache for its keys, so the two
// cache layers agree on canonical spelling.
func SigNum(v float64) string {
	if v == 0 {
		v = 0 // collapse -0
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
