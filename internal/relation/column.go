package relation

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Columnar storage. The categorizer's level-by-level search reads the same
// one or two attributes for every tuple of every frontier node, per
// candidate attribute, per level — a column-at-a-time access pattern — so
// the relation stores nothing but columns:
//
//   - a numeric attribute is a dense []float64 indexed by row id;
//   - a categorical attribute is a []uint32 of codes into the attribute's
//     dictionary, so partitioning is integer counting-sort instead of
//     string hashing.
//
// A code is a value's position in arrival order — first appearance for
// Append, page-dictionary order for AppendPages — and never changes once
// assigned, so a published code column stays valid as the dictionary
// grows. Nothing reads code order as value order.
//
// Each column is a backing array with room for columns.rows rows, of
// which the first columns.n are published. A writer fills rows past n and
// then raises n; when the arrays are full it copies them into a larger
// successor and publishes that instead. A published row is never written
// again, so a reader's snapshot — the columns it loaded and the count it
// read — stays consistent while writers append.

// columns is the relation's storage: per attribute, one backing array of
// rows elements, shared by every snapshot until a successor replaces it.
type columns struct {
	// n is the published row count; rows [n, rows) are the writer's.
	n    atomic.Int64
	rows int
	num  [][]float64   // per attribute; nil for a categorical attribute
	code [][]uint32    // per attribute; nil for a numeric attribute
	dict []*dictionary // per attribute; nil for a numeric attribute
}

// newColumns allocates storage for capRows rows of schema, copying the
// published rows and sharing the dictionaries of prev (nil for an empty
// relation). The result is unpublished: its count is prev's.
func newColumns(schema *Schema, capRows int, prev *columns) *columns {
	k := schema.Len()
	c := &columns{
		rows: capRows,
		num:  make([][]float64, k),
		code: make([][]uint32, k),
		dict: make([]*dictionary, k),
	}
	n := 0
	if prev != nil {
		n = int(prev.n.Load())
	}
	c.n.Store(int64(n))
	for a := 0; a < k; a++ {
		if schema.Attr(a).Type == Numeric {
			c.num[a] = make([]float64, capRows)
			if prev != nil {
				copy(c.num[a], prev.num[a][:n])
			}
			continue
		}
		c.code[a] = make([]uint32, capRows)
		if prev != nil {
			copy(c.code[a], prev.code[a][:n])
			c.dict[a] = prev.dict[a]
		} else {
			c.dict[a] = &dictionary{codes: make(map[string]uint32)}
		}
	}
	return c
}

// growCap sizes a backing array for n rows with headroom, so steady-state
// appends extend in place instead of reallocating per row.
func growCap(n int) int { return n + n/4 + 64 }

// reserveLocked returns the storage a writer fills with k more rows and the
// first row to fill: the published columns when the rows fit, or else an
// unpublished successor sized with headroom. Caller holds r.mu and hands
// the result to publishLocked.
func (r *Relation) reserveLocked(k int) (*columns, int) {
	c := r.cols.Load()
	n := int(c.n.Load())
	if n+k > c.rows {
		c = newColumns(r.schema, growCap(n+k), c)
	}
	return c, n
}

// publishLocked makes rows [.., n) of c visible: it raises c's count and,
// when c is a successor from reserveLocked, installs it. Caller holds r.mu.
func (r *Relation) publishLocked(c *columns, n int) {
	c.n.Store(int64(n))
	if r.cols.Load() != c {
		r.cols.Store(c)
	}
}

// view is one consistent read of the storage: the first n rows of c.
type view struct {
	c *columns
	n int
}

// view loads the current snapshot. The count is read after the columns
// pointer and before any dictionary, so every code in the first n rows is
// covered by the dictionary values the reader loads next.
func (r *Relation) view() view {
	c := r.cols.Load()
	return view{c: c, n: int(c.n.Load())}
}

// value decodes row i's cell of attribute a.
func (v view) value(a, i int) Value {
	if num := v.c.num[a]; num != nil {
		return NumberValue(num[i])
	}
	return StringValue(v.c.dict[a].values()[v.c.code[a][i]])
}

// dictionary is one categorical attribute's value table, shared by every
// storage generation of the relation.
type dictionary struct {
	// vals is the published table, indexed by code. The writer appends into
	// spare capacity and republishes a longer header.
	vals atomic.Pointer[[]string]
	// codes maps each value to its code. The writer, holding the relation's
	// mutex, reads it freely and inserts under mu; readers take mu.
	mu    sync.Mutex
	codes map[string]uint32
}

// values returns the published value table.
func (d *dictionary) values() []string {
	if p := d.vals.Load(); p != nil {
		return *p
	}
	return nil
}

// code returns v's code, assigning the next one when v is new. The new
// value is published before its code can reach a column. Caller holds the
// relation's mutex.
func (d *dictionary) code(v string) uint32 {
	if c, ok := d.codes[v]; ok {
		return c
	}
	v = strings.Clone(v) // the table outlives the caller's string
	vals := append(d.values(), v)
	c := uint32(len(vals) - 1)
	d.vals.Store(&vals)
	d.mu.Lock()
	d.codes[v] = c
	d.mu.Unlock()
	return c
}

// lookup returns v's code for a reader.
func (d *dictionary) lookup(v string) (uint32, bool) {
	d.mu.Lock()
	c, ok := d.codes[v]
	d.mu.Unlock()
	return c, ok
}

// CatColumn is a snapshot of one categorical attribute. Codes[i] is the
// code of row i's value and Dict maps codes to values, in arrival order.
// Both slices are shared with every snapshot and conjunct bitmap built
// over them — callers must not modify them.
type CatColumn struct {
	Codes []uint32
	Dict  []string
	d     *dictionary
}

// Value decodes row i's value.
func (c *CatColumn) Value(i int) string { return c.Dict[c.Codes[i]] }

// Card returns the number of distinct values (the dictionary size).
func (c *CatColumn) Card() int { return len(c.Dict) }

// Code returns the dictionary code of v and whether v is in the snapshot's
// dictionary. A value the relation coded after the snapshot was taken —
// its code at or past len(Dict) — reads as absent.
func (c *CatColumn) Code(v string) (uint32, bool) {
	code, ok := c.d.lookup(v)
	if !ok || int(code) >= len(c.Dict) {
		return 0, false
	}
	return code, true
}

// CatColumn returns a snapshot of the named categorical attribute. It
// errors if the attribute is missing or numeric.
func (r *Relation) CatColumn(attr string) (*CatColumn, error) {
	pos, err := r.attrPos(attr, Categorical)
	if err != nil {
		return nil, err
	}
	v := r.view()
	d := v.c.dict[pos]
	dict := d.values()
	return &CatColumn{Codes: v.c.code[pos][:v.n:v.n], Dict: dict[:len(dict):len(dict)], d: d}, nil
}

// NumColumn returns a snapshot of the named numeric attribute. It errors if
// the attribute is missing or categorical.
func (r *Relation) NumColumn(attr string) ([]float64, error) {
	pos, err := r.attrPos(attr, Numeric)
	if err != nil {
		return nil, err
	}
	v := r.view()
	return v.c.num[pos][:v.n:v.n], nil
}

// attrPos resolves attr to its schema position, checking its type.
func (r *Relation) attrPos(attr string, typ Type) (int, error) {
	pos, ok := r.schema.Lookup(attr)
	if !ok {
		return 0, fmt.Errorf("relation %s: no attribute %q to project", r.Name, attr)
	}
	if r.schema.Attr(pos).Type != typ {
		return 0, fmt.Errorf("relation %s: attribute %q is not %s", r.Name, attr, typ)
	}
	return pos, nil
}

// Page is one decoded column page: one attribute's cells for a run of
// consecutive rows — Nums for a numeric attribute, or Codes into the
// page-local Dict for a categorical one. The durable store decodes its
// segment files into pages.
type Page struct {
	Nums  []float64
	Codes []uint32
	Dict  []string
}

// AppendPages appends one run of rows given column by column: pages[a]
// holds attribute a's cells. Numeric pages are copied, and each
// categorical page's codes are translated into the relation's dictionary
// through one table built from the page's Dict. It returns an error, and
// changes nothing, when the page count does not match the schema or a
// page has the wrong kind, a different length from the first, or a code
// outside its Dict.
func (r *Relation) AppendPages(pages []Page) error {
	k, err := r.checkPages(pages)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, n := r.reserveLocked(k)
	for a, p := range pages {
		if num := c.num[a]; num != nil {
			copy(num[n:n+k], p.Nums)
			continue
		}
		d := c.dict[a]
		table := make([]uint32, len(p.Dict))
		for i, v := range p.Dict {
			table[i] = d.code(v)
		}
		dst := c.code[a][n : n+k]
		for i, code := range p.Codes {
			dst[i] = table[code]
		}
	}
	r.publishLocked(c, n+k)
	return nil
}

// checkPages validates a bulk append and returns its row count.
func (r *Relation) checkPages(pages []Page) (int, error) {
	if len(pages) != r.schema.Len() {
		return 0, fmt.Errorf("relation %s: %d pages, schema has %d attributes", r.Name, len(pages), r.schema.Len())
	}
	k := 0
	for a, p := range pages {
		attr := r.schema.Attr(a)
		rows := len(p.Codes)
		if attr.Type == Numeric {
			rows = len(p.Nums)
		}
		if a == 0 {
			k = rows
		}
		switch {
		case attr.Type == Numeric && (p.Codes != nil || p.Dict != nil),
			attr.Type == Categorical && p.Nums != nil:
			return 0, fmt.Errorf("relation %s: page for %s attribute %q has the wrong kind", r.Name, attr.Type, attr.Name)
		case rows != k:
			return 0, fmt.Errorf("relation %s: page for %q has %d rows, want %d", r.Name, attr.Name, rows, k)
		}
		for _, code := range p.Codes {
			if int(code) >= len(p.Dict) {
				return 0, fmt.Errorf("relation %s: page for %q has code %d outside its dictionary of %d", r.Name, attr.Name, code, len(p.Dict))
			}
		}
	}
	return k, nil
}

// columnCache holds the relation's derived full-table structures.
type columnCache struct {
	mu sync.Mutex
	//lint:guardedby mu
	sorted map[int]*numSorted // keyed by schema position
	// identity is the cached full row list [0, 1, …, n-1] that Select(nil)
	// and Browse return; extended in place (spare capacity) as rows append.
	//lint:guardedby mu
	identity []int
	//lint:guardedby mu
	idBacking []int
}

// identityRows returns the cached identity row list, building or extending
// it to the current row count. The returned slice is shared — callers must
// treat it as read-only.
func (r *Relation) identityRows() []int {
	n := r.Len()
	r.cache.mu.Lock()
	defer r.cache.mu.Unlock()
	if len(r.cache.identity) == n {
		return r.cache.identity
	}
	b := r.cache.idBacking
	if cap(b) < n {
		nb := make([]int, len(b), growCap(n))
		copy(nb, b)
		b = nb
	}
	for i := len(b); i < n; i++ {
		b = append(b, i)
	}
	r.cache.idBacking = b
	r.cache.identity = b[:n:n]
	return r.cache.identity
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
// (deterministic) order as before the columnar rewrite.
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
// the column — a full re-sort, deliberately, so the permutation (ties
// included) is bitwise what a cold build over the same rows produces. The
// returned slices are shared snapshots; callers must not modify them.
func (r *Relation) NumSorted(attr string) (rows []int, vals []float64, err error) {
	pos, err := r.attrPos(attr, Numeric)
	if err != nil {
		return nil, nil, err
	}
	v := r.view()
	col := v.c.num[pos][:v.n]
	r.cache.mu.Lock()
	defer r.cache.mu.Unlock()
	if s, ok := r.cache.sorted[pos]; ok && len(s.rows) == len(col) {
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
	if r.cache.sorted == nil {
		r.cache.sorted = make(map[int]*numSorted)
	}
	r.cache.sorted[pos] = s
	return s.rows, s.vals, nil
}
