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

// Relation is an in-memory table: a schema plus rows, stored column by
// column (column.go). Tuple identity within a relation is the row index,
// which the categorizer uses to keep tuple-sets as index slices.
//
// Concurrency: readers take no lock to read rows. The storage is published
// RCU-style — a set of column backing arrays behind an atomic pointer, plus
// an atomic count of the rows published in it — and writers (Append,
// AppendPages, Grow) serialize on an internal mutex, write their rows into
// the spare capacity past the published count, and then raise the count
// with one atomic store. A reader keeps whichever snapshot it loaded; row
// indices obtained from an older snapshot stay valid against newer ones
// because rows are only ever appended. The one lock a reader takes is a
// dictionary's, for a value lookup (CatColumn.Code), which a writer holds
// only while inserting a new value.
type Relation struct {
	Name   string
	schema *Schema

	// mu serializes writers; readers go through cols.Load() only.
	mu   sync.Mutex
	cols atomic.Pointer[columns]

	// Derived caches (see column.go): full-table sorts and the identity
	// row list, each extended or rebuilt when it lags the row count.
	cache columnCache

	// Vectorized selection state (see vselect.go): the bounded
	// conjunct-bitmap cache and the selection counters.
	vsel vselState
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	r := &Relation{Name: name, schema: schema}
	r.cols.Store(newColumns(schema, 0, nil))
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of rows.
func (r *Relation) Len() int { return int(r.cols.Load().n.Load()) }

// Row returns the i-th tuple, built from the columns; the caller owns it.
func (r *Relation) Row(i int) Tuple {
	v := r.view()
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("relation %s: row %d out of range [0, %d)", r.Name, i, v.n))
	}
	t := make(Tuple, r.schema.Len())
	for a := range t {
		t[a] = v.value(a, i)
	}
	return t
}

// Cell returns row i's value of the attribute at schema position a, without
// building the rest of the row.
func (r *Relation) Cell(i, a int) Value {
	v := r.view()
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("relation %s: row %d out of range [0, %d)", r.Name, i, v.n))
	}
	return v.value(a, i)
}

// Append adds a row. It returns an error if the tuple width does not match
// the schema. Append is safe to call concurrently with readers (Select,
// Categorize, the column accessors): the tuple's cells are encoded into
// spare capacity past the published count — numeric cells as they are,
// categorical cells as dictionary codes — and then the count is raised.
// The relation keeps no reference to t.
//
// Nothing derived is invalidated: cached conjunct bitmaps and the identity
// list extend over just the appended rows on their next read (vselect.go,
// column.go), so per-row maintenance cost is independent of the total row
// count.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation %s: tuple has %d cells, schema has %d", r.Name, len(t), r.schema.Len())
	}
	r.mu.Lock()
	c, n := r.reserveLocked(1)
	for a, v := range t {
		if num := c.num[a]; num != nil {
			num[n] = v.Num
		} else {
			c.code[a][n] = c.dict[a].code(v.Str)
		}
	}
	r.publishLocked(c, n+1)
	r.mu.Unlock()
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
	c := r.cols.Load()
	if have := int(c.n.Load()); have+n > c.rows {
		r.cols.Store(newColumns(r.schema, have+n, c))
	}
	r.mu.Unlock()
}

// Select returns the indices of all rows satisfying pred, in row order.
// A nil predicate selects every row; that identity list is cached and
// shared across calls — callers must not modify it.
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
