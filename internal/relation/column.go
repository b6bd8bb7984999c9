package relation

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Columnar projections. The categorizer's level-by-level search reads the
// same one or two attributes for every tuple of every frontier node, per
// candidate attribute, per level — a column-at-a-time access pattern that
// row-wise Tuple storage serves badly (every read drags the whole row
// through the cache and hashes strings). A projection materializes one
// attribute as a dense, cache-friendly array:
//
//   - numeric attributes project to a []float64 indexed by row id;
//   - categorical attributes project to dictionary codes: a []uint32 per
//     row plus a sorted value table, so partitioning becomes integer
//     counting-sort instead of string hashing.
//
// Maintenance is incremental (DESIGN.md §14): projections are immutable
// snapshots published RCU-style, and appending rows no longer invalidates
// them. A read against a stale projection extends it — new rows are encoded
// into spare capacity beyond the published length (invisible to holders of
// the older snapshot) and a longer snapshot is published. The sealed prefix
// is never re-read; per-row maintenance cost is O(1) amortized instead of
// the historical O(total rows) drop-and-rebuild. The one structural event
// is a dictionary remap: when a categorical value never seen before
// arrives, the sorted dictionary gains an entry and every code at or above
// the insertion point shifts by the insert count — a pure integer rewrite
// of the code array (no sealed row is re-read, no string is re-hashed),
// bounded by the number of distinct values ever appended.
//
// Concurrent readers are safe: the cache is mutex-guarded, published
// snapshots are cap-clamped so spare capacity is unreachable through them,
// and a snapshot's visible elements are never written again.

// CatColumn is the dictionary-encoded projection of one categorical
// attribute. Codes[i] is the code of row i's value; Dict is sorted
// ascending, so codes compare in lexicographic value order. Both slices are
// shared snapshots — callers must not modify them (catlint's segguard
// check enforces this outside internal/relation).
type CatColumn struct {
	Codes []uint32
	Dict  []string
}

// Value decodes row i's value.
func (c *CatColumn) Value(i int) string { return c.Dict[c.Codes[i]] }

// Card returns the number of distinct values (the dictionary size).
func (c *CatColumn) Card() int { return len(c.Dict) }

// Code returns the dictionary code of v and whether v occurs in the column.
func (c *CatColumn) Code(v string) (uint32, bool) {
	i := sort.SearchStrings(c.Dict, v)
	if i < len(c.Dict) && c.Dict[i] == v {
		return uint32(i), true
	}
	return 0, false
}

// catEntry is the cache slot of one categorical projection: the published
// snapshot plus the full-capacity backing array the next extension appends
// into. Invariant: e.backing[:len(e.col.Codes)] is e.col.Codes' data.
type catEntry struct {
	col     *CatColumn
	backing []uint32
}

// numEntry is the cache slot of one numeric projection.
type numEntry struct {
	col     []float64
	backing []float64
}

// columnCache holds the incrementally-maintained projections of a Relation.
type columnCache struct {
	mu sync.Mutex
	//lint:guardedby mu
	cat map[string]*catEntry // keyed by lower-cased attribute name
	//lint:guardedby mu
	num map[string]*numEntry
	//lint:guardedby mu
	sorted map[string]*numSorted
	// identity is the cached full row list [0, 1, …, n-1] that Select(nil)
	// and Browse return; extended in place (spare capacity) as rows append.
	//lint:guardedby mu
	identity []int
	//lint:guardedby mu
	idBacking []int
}

// growCap sizes a backing array for n rows with headroom, so steady-state
// appends extend in place instead of reallocating per row.
func growCap(n int) int { return n + n/4 + 64 }

// identityRows returns the cached identity row list, building or extending
// it to the current row count. The returned slice is shared — callers must
// treat it as read-only.
func (r *Relation) identityRows() []int {
	n := r.Len()
	r.cols.mu.Lock()
	defer r.cols.mu.Unlock()
	if len(r.cols.identity) == n {
		return r.cols.identity
	}
	b := r.cols.idBacking
	if cap(b) < n {
		nb := make([]int, len(b), growCap(n))
		copy(nb, b)
		b = nb
	}
	for i := len(b); i < n; i++ {
		b = append(b, i)
	}
	r.cols.idBacking = b
	r.cols.identity = b[:n:n]
	return r.cols.identity
}

// numSorted is the whole relation ordered by one numeric attribute.
type numSorted struct {
	rows []int
	vals []float64
}

// SortByValue returns tset's rows ordered by ascending col value, together
// with the parallel value slice. The permutation is exactly what pdqsort
// produces over tset with a plain `<` comparator — the categorizer's
// historical per-node sort — but runs over packed (value, row) pairs, so no
// comparison gathers through the column. Ties therefore land in the same
// (deterministic) order as before the columnar rewrite, and — because the
// numeric path is never sharded (DESIGN.md §12) — that order is identical
// at every Options.Shards setting.
func SortByValue(col []float64, tset []int) (rows []int, vals []float64) {
	pairs := pairsFor(len(tset))
	for k, i := range tset {
		pairs[k] = valRow{v: col[i], row: int32(i)}
	}
	sortValRows(pairs)
	rows = make([]int, len(pairs))
	vals = make([]float64, len(pairs))
	for k, p := range pairs {
		rows[k] = int(p.row)
		vals[k] = p.v
	}
	pairPool.Put(&pairs)
	return rows, vals
}

// pairPool recycles the transient (value, row) buffers of SortByValue: the
// level-by-level search sorts one buffer per (node, attribute) pair and
// discards it immediately, so without pooling the sort loop dominates the
// allocator.
var pairPool = sync.Pool{New: func() any { s := make([]valRow, 0, 1024); return &s }}

func pairsFor(n int) []valRow {
	p := pairPool.Get().(*[]valRow)
	if cap(*p) < n {
		*p = make([]valRow, n)
	}
	return (*p)[:n]
}

type valRow struct {
	v   float64
	row int32
}

func sortValRows(pairs []valRow) {
	// slices.SortFunc is the same pdqsort as sort.Slice minus the
	// reflection; with this comparator its comparison outcomes — and hence
	// the final permutation, ties included — match the historical
	// sort.Slice(idx, func(a,b) { col[idx[a]] < col[idx[b]] }) exactly.
	// Do NOT break ties (e.g. on row id) to make the order total: a
	// tie-aware comparator defeats pdqsort's equal-element partitioning
	// and costs >2x on the low-cardinality columns the categorizer loves.
	slices.SortFunc(pairs, func(a, b valRow) int {
		switch {
		case a.v < b.v:
			return -1
		case b.v < a.v:
			return 1
		default:
			return 0
		}
	})
}

// NumSorted returns the relation's rows ordered by the named numeric
// attribute, with the parallel sorted values — the full-relation case of
// SortByValue, built once and cached (browsing-mode categorization sorts
// the entire result set at its root for every numeric candidate, on every
// request). A cached permutation that lags appended rows is rebuilt from
// the incrementally-extended column — a full re-sort, deliberately, so the
// permutation (ties included) is bitwise what a cold build over the same
// rows produces. The returned slices are shared snapshots; callers must not
// modify them.
func (r *Relation) NumSorted(attr string) (rows []int, vals []float64, err error) {
	col, err := r.NumColumn(attr)
	if err != nil {
		return nil, nil, err
	}
	key := lower(r.schema.Attr(mustPos(r.schema, attr)).Name)
	r.cols.mu.Lock()
	defer r.cols.mu.Unlock()
	if s, ok := r.cols.sorted[key]; ok && len(s.rows) == len(col) {
		return s.rows, s.vals, nil
	}
	pairs := pairsFor(len(col))
	for i, v := range col {
		pairs[i] = valRow{v: v, row: int32(i)}
	}
	sortValRows(pairs)
	s := &numSorted{rows: make([]int, len(pairs)), vals: make([]float64, len(pairs))}
	for k, p := range pairs {
		s.rows[k] = int(p.row)
		s.vals[k] = p.v
	}
	pairPool.Put(&pairs)
	if r.cols.sorted == nil {
		r.cols.sorted = make(map[string]*numSorted)
	}
	r.cols.sorted[key] = s
	return s.rows, s.vals, nil
}

func mustPos(s *Schema, attr string) int {
	pos, _ := s.Lookup(attr)
	return pos
}

// CatColumn returns the dictionary-encoded projection of the named
// categorical attribute, building it on first use and extending it over any
// rows appended since the cached snapshot. It errors if the attribute is
// missing or numeric.
func (r *Relation) CatColumn(attr string) (*CatColumn, error) {
	pos, ok := r.schema.Lookup(attr)
	if !ok {
		return nil, fmt.Errorf("relation %s: no attribute %q to project", r.Name, attr)
	}
	if r.schema.Attr(pos).Type != Categorical {
		return nil, fmt.Errorf("relation %s: attribute %q is not categorical", r.Name, attr)
	}
	key := lower(r.schema.Attr(pos).Name)
	rows := r.snapshot()
	r.cols.mu.Lock()
	defer r.cols.mu.Unlock()
	return r.catColumnLocked(key, pos, rows), nil
}

// catColumnLocked builds or extends the categorical projection to cover
// rows. Called with cols.mu held.
func (r *Relation) catColumnLocked(key string, pos int, rows []Tuple) *CatColumn {
	e := r.cols.cat[key]
	if e == nil {
		e = buildCatEntry(rows, pos)
		if r.cols.cat == nil {
			r.cols.cat = make(map[string]*catEntry)
		}
		r.cols.cat[key] = e
		return e.col
	}
	n0, n := len(e.col.Codes), len(rows)
	if n0 >= n {
		// rows may be a snapshot loaded before another reader extended the
		// column past it. Never publish a shorter column: extensions append
		// at the end of the backing array, so every later row's code would
		// land at the wrong position.
		return e.col
	}
	// Collect values the sorted dictionary has never seen.
	dict := e.col.Dict
	var newVals []string
	for i := n0; i < n; i++ {
		v := rows[i][pos].Str
		if _, ok := e.col.Code(v); ok {
			continue
		}
		if j := sort.SearchStrings(newVals, v); j == len(newVals) || newVals[j] != v {
			newVals = append(newVals, "")
			copy(newVals[j+1:], newVals[j:])
			newVals[j] = v
		}
	}
	var ne *catEntry
	if newVals == nil {
		// Append-only extension: new codes land in spare capacity beyond the
		// published length; holders of the older snapshot never see them.
		backing := e.backing
		if cap(backing) < n {
			backing = make([]uint32, n0, growCap(n))
			copy(backing, e.backing)
		}
		for i := n0; i < n; i++ {
			c, _ := e.col.Code(rows[i][pos].Str)
			backing = append(backing, c)
		}
		ne = &catEntry{col: &CatColumn{Codes: backing[:n:n], Dict: dict}, backing: backing}
	} else {
		// Dictionary remap: merge the new values into the sorted dictionary
		// and shift existing codes past each insertion point. An integer
		// rewrite of the code array — sealed rows are not re-read.
		newDict := make([]string, 0, len(dict)+len(newVals))
		shift := make([]uint32, len(dict))
		i, j := 0, 0
		for i < len(dict) || j < len(newVals) {
			if j == len(newVals) || (i < len(dict) && dict[i] < newVals[j]) {
				shift[i] = uint32(len(newDict))
				newDict = append(newDict, dict[i])
				i++
			} else {
				newDict = append(newDict, newVals[j])
				j++
			}
		}
		backing := make([]uint32, n, growCap(n))
		for k, c := range e.backing[:n0] {
			backing[k] = shift[c]
		}
		nc := &CatColumn{Codes: backing[:n:n], Dict: newDict}
		for k := n0; k < n; k++ {
			c, _ := nc.Code(rows[k][pos].Str)
			backing[k] = c
		}
		ne = &catEntry{col: nc, backing: backing}
	}
	r.cols.cat[key] = ne
	return ne.col
}

// buildCatEntry dictionary-encodes column pos from scratch, with spare
// capacity for future extensions.
func buildCatEntry(rows []Tuple, pos int) *catEntry {
	codeOf := make(map[string]uint32, 64)
	var dict []string
	for _, row := range rows {
		v := row[pos].Str
		if _, ok := codeOf[v]; !ok {
			codeOf[v] = 0
			dict = append(dict, v)
		}
	}
	sort.Strings(dict)
	for i, v := range dict {
		codeOf[v] = uint32(i)
	}
	n := len(rows)
	backing := make([]uint32, n, growCap(n))
	for i, row := range rows {
		backing[i] = codeOf[row[pos].Str]
	}
	return &catEntry{col: &CatColumn{Codes: backing[:n:n], Dict: dict}, backing: backing}
}

// NumColumn returns the dense projection of the named numeric attribute,
// building it on first use and extending it over rows appended since the
// cached snapshot. It errors if the attribute is missing or categorical.
func (r *Relation) NumColumn(attr string) ([]float64, error) {
	pos, ok := r.schema.Lookup(attr)
	if !ok {
		return nil, fmt.Errorf("relation %s: no attribute %q to project", r.Name, attr)
	}
	if r.schema.Attr(pos).Type != Numeric {
		return nil, fmt.Errorf("relation %s: attribute %q is not numeric", r.Name, attr)
	}
	key := lower(r.schema.Attr(pos).Name)
	rows := r.snapshot()
	r.cols.mu.Lock()
	defer r.cols.mu.Unlock()
	return r.numColumnLocked(key, pos, rows), nil
}

// numColumnLocked builds or extends the numeric projection to cover rows.
// Called with cols.mu held.
func (r *Relation) numColumnLocked(key string, pos int, rows []Tuple) []float64 {
	e := r.cols.num[key]
	n := len(rows)
	if e != nil && len(e.col) >= n {
		// As in catColumnLocked: a stale snapshot must not shrink the column.
		return e.col
	}
	var backing []float64
	n0 := 0
	if e != nil {
		backing = e.backing
		n0 = len(e.col)
		if cap(backing) < n {
			backing = make([]float64, n0, growCap(n))
			copy(backing, e.backing)
		}
	} else {
		backing = make([]float64, 0, growCap(n))
	}
	for i := n0; i < n; i++ {
		backing = append(backing, rows[i][pos].Num)
	}
	ne := &numEntry{col: backing[:n:n], backing: backing}
	if r.cols.num == nil {
		r.cols.num = make(map[string]*numEntry)
	}
	r.cols.num[key] = ne
	return ne.col
}

// BuildColumns eagerly materializes projections for the named attributes
// (all attributes when none are given), so later concurrent readers never
// pay the build inside a hot path.
func (r *Relation) BuildColumns(attrs ...string) error {
	if len(attrs) == 0 {
		attrs = make([]string, r.schema.Len())
		for i := range attrs {
			attrs[i] = r.schema.Attr(i).Name
		}
	}
	for _, attr := range attrs {
		pos, ok := r.schema.Lookup(attr)
		if !ok {
			return fmt.Errorf("relation %s: no attribute %q to project", r.Name, attr)
		}
		var err error
		if r.schema.Attr(pos).Type == Categorical {
			_, err = r.CatColumn(attr)
		} else {
			_, err = r.NumColumn(attr)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// lower ASCII-lowercases an attribute name for the projection and zone-map
// cache keys, returning s itself (no allocation) when it is already lower.
func lower(s string) string {
	b := []byte(s)
	changed := false
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
			changed = true
		}
	}
	if !changed {
		return s
	}
	return string(b)
}

// dropColumns invalidates all cached projections. No longer on the Append
// path (maintenance is incremental); retained as the drop-everything
// baseline for the segment benchmarks and invalidation tests.
func (r *Relation) dropColumns() {
	r.cols.mu.Lock()
	r.cols.cat = nil
	r.cols.num = nil
	r.cols.sorted = nil
	r.cols.identity = nil
	r.cols.idBacking = nil
	r.cols.mu.Unlock()
}
