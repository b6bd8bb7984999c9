package relation

import "math/bits"

// Bitmap is a word-packed set of row ids in [0, Len): bit i of words[i/64]
// is row i's membership. It is the intermediate representation of the
// vectorized selection engine (vselect.go): each conjunct materializes as
// one bitmap, conjuncts combine with word-wise AND, and the final bitmap
// unpacks to the ascending []int row list the categorizer consumes.
//
// Bitmaps published through the conjunct cache are immutable; the in-place
// operations (Set, And) are for bitmaps still owned by their builder. A
// Bitmap moves by pointer: a copy would share words but fork n.
type Bitmap struct {
	_     noCopy
	words []uint64
	n     int
}

// noCopy is a zero-size first field whose Lock/Unlock methods make go vet's
// copylocks check reject a Bitmap passed, returned or assigned by value.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewBitmap returns an empty bitmap over rows [0, n).
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)>>6), n: n}
}

// Len returns the row universe size n.
func (b *Bitmap) Len() int { return b.n }

// Set adds row i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether row i is set.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]>>(uint(i)&63)&1 != 0 }

// Count returns the number of set rows.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And intersects b with o in place and returns the resulting count. The
// universes may differ by appended rows (conjunct bitmaps cached at
// different generations): rows beyond o's universe are treated as not
// matching o, so the intersection is exact over the shorter universe — the
// consistent-prefix semantics Select needs when conjuncts raced an Append.
func (b *Bitmap) And(o *Bitmap) int {
	c := 0
	m := min(len(b.words), len(o.words))
	for i := 0; i < m; i++ {
		b.words[i] &= o.words[i]
		c += bits.OnesCount64(b.words[i])
	}
	for i := m; i < len(b.words); i++ {
		b.words[i] = 0
	}
	return c
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

// AppendRows appends the set rows to dst in ascending order and returns the
// extended slice. Iteration peels one bit per trailing-zeros step, so sparse
// bitmaps cost O(set bits), not O(n).
func (b *Bitmap) AppendRows(dst []int) []int {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Rows returns the set rows in ascending order, sized exactly.
func (b *Bitmap) Rows() []int {
	return b.AppendRows(make([]int, 0, b.Count()))
}
