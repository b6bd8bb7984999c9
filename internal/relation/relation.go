// Package relation implements a small typed, in-memory relational substrate:
// schemas with categorical and numeric attributes, tuples, relations, and
// selection evaluation. It is the storage and execution layer underneath the
// query-result categorizer: the categorizer consumes a Relation holding the
// result set R of an SPJ query and partitions it with label predicates.
package relation

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Type classifies an attribute's domain. The categorizer treats the two
// kinds differently: categorical attributes are partitioned into
// single-value categories, numeric attributes into ranges.
type Type int

const (
	// Categorical attributes hold string values from a discrete domain.
	Categorical Type = iota
	// Numeric attributes hold float64 values from an ordered domain.
	Numeric
)

// String returns "categorical" or "numeric".
func (t Type) String() string {
	switch t {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Attribute describes one column of a relation.
type Attribute struct {
	Name string
	Type Type
}

// Schema is an ordered list of attributes with name-based lookup.
type Schema struct {
	attrs []Attribute
	index map[string]int // lower-cased name -> position
}

// NewSchema builds a schema from the given attributes. Attribute names are
// case-insensitive and must be unique.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{
		attrs: make([]Attribute, len(attrs)),
		index: make(map[string]int, len(attrs)),
	}
	copy(s.attrs, attrs)
	for i, a := range attrs {
		key := strings.ToLower(a.Name)
		if key == "" {
			return nil, fmt.Errorf("relation: attribute %d has empty name", i)
		}
		if _, dup := s.index[key]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q", a.Name)
		}
		s.index[key] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for tests and
// static schemas.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute {
	out := make([]Attribute, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Lookup returns the position of the named attribute (case-insensitive) and
// whether it exists.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[strings.ToLower(name)]
	return i, ok
}

// TypeOf returns the type of the named attribute. The second result is false
// if the attribute does not exist.
func (s *Schema) TypeOf(name string) (Type, bool) {
	i, ok := s.Lookup(name)
	if !ok {
		return 0, false
	}
	return s.attrs[i].Type, true
}

// Value is a single cell: either a categorical string or a numeric float64,
// according to the attribute's declared type. The zero Value is a
// categorical empty string.
type Value struct {
	Str string
	Num float64
}

// StringValue makes a categorical value.
func StringValue(s string) Value { return Value{Str: s} }

// NumberValue makes a numeric value.
func NumberValue(n float64) Value { return Value{Num: n} }

// Tuple is one row, with cells positionally aligned to a Schema.
type Tuple []Value

// Relation is an in-memory table: a schema plus rows. Rows are stored by
// value; tuple identity within a relation is the row index, which the
// categorizer uses to keep tuple-sets as index slices.
//
// Concurrency: readers never block. The row store is published RCU-style —
// an immutable slice header behind an atomic pointer that every read
// operation loads once — and writers (Append, Grow) serialize on an
// internal mutex, mutate a private copy or the spare capacity beyond the
// published length, and publish with one atomic store. Readers racing a writer keep whichever
// snapshot they loaded; row indices obtained from an older snapshot stay
// valid against newer ones because rows are only ever appended.
type Relation struct {
	Name   string
	schema *Schema

	// mu serializes writers; readers go through rows.Load() only.
	mu   sync.Mutex
	rows atomic.Pointer[[]Tuple]

	// Cached columnar projections (see column.go); maintained incrementally
	// across Appends — sealed spans are never rebuilt.
	cols columnCache

	// Segmented-storage state (see segment.go): the sealed-segment list and
	// the storage counters behind healthz's "storage" block.
	seg segState

	// Vectorized selection state (see vselect.go): the bounded
	// conjunct-bitmap cache and the selection counters.
	vsel vselState

	// dataGen counts mutations; every Append increments it. Conjunct
	// bitmaps and memoized trees are stamped with the generation they were
	// built against.
	dataGen atomic.Uint64
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{Name: name, schema: schema}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// snapshot returns the current immutable row slice. One load per read
// operation: a reader works against a consistent row set even while a
// writer publishes a successor.
func (r *Relation) snapshot() []Tuple {
	if p := r.rows.Load(); p != nil {
		return *p
	}
	return nil
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.snapshot()) }

// Row returns the i-th tuple. The returned slice must not be modified.
func (r *Relation) Row(i int) Tuple { return r.snapshot()[i] }

// Append adds a row. It returns an error if the tuple width does not match
// the schema. Append is safe to call concurrently with readers (Select,
// Categorize, the column builders): the new row lands in spare capacity
// beyond the published length — invisible to holders of the old snapshot —
// and then a new slice header is published atomically.
//
// Append only touches the active tail of the segmented store (segment.go):
// it bumps the data generation and seals any segment spans the tail now
// covers. Nothing derived is invalidated — columnar projections and cached
// conjunct bitmaps extend over just the appended rows on their next read
// (column.go, vselect.go), so per-row maintenance cost is independent of the
// total row count.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation %s: tuple has %d cells, schema has %d", r.Name, len(t), r.schema.Len())
	}
	r.mu.Lock()
	rows := append(r.snapshot(), t)
	r.rows.Store(&rows)
	r.dataGen.Add(1)
	prevHi := r.sealedRows()
	r.maybeSeal(len(rows))
	newHi := r.sealedRows()
	hook := r.seg.sealHook
	r.mu.Unlock()
	if hook != nil && newHi > prevHi {
		// Outside the writer mutex: the span is already sealed and
		// immutable, so the hook may read rows [prevHi, newHi) freely —
		// the durable store spills them to disk from here.
		hook(prevHi, newHi)
	}
	return nil
}

// MustAppend is Append but panics on error; for tests and generators whose
// width is statically correct.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Grow pre-allocates capacity for n additional rows.
func (r *Relation) Grow(n int) {
	r.mu.Lock()
	rows := r.snapshot()
	if need := len(rows) + n; need > cap(rows) {
		grown := make([]Tuple, len(rows), need)
		copy(grown, rows)
		r.rows.Store(&grown)
	}
	r.mu.Unlock()
}

// Select returns the indices of all rows satisfying pred, in row order.
// A nil predicate selects every row; that identity list is cached with the
// projections and shared across calls — callers must not modify it.
//
// Non-nil predicates evaluate through the vectorized bitmap engine
// (vselect.go), the only selection code in the program: every Predicate is
// an And/In/Range/True tree, exactly the shapes the engine evaluates.
func (r *Relation) Select(pred Predicate) []int {
	if pred == nil {
		return r.identityRows()
	}
	//lint:ignore hottime one clock read per Select (not per row), amortized over the whole scan; feeds SelectStats.SelectNanos in healthz
	start := time.Now()
	r.vsel.selects.Add(1)
	//lint:ignore hottime paired with the start read above; deliberate one-shot instrumentation
	defer func() { r.vsel.nanos.Add(uint64(time.Since(start))) }()
	return r.vectorSelect(pred)
}
