package workload

import (
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/sqlparse"
)

// Copy-on-write support for the snapshot-swapped serving path: an
// online-learning system never mutates published statistics. The writer
// clones the current Stats, which copies only the map of per-attribute table
// pointers and the rank order; folds the new queries into the clone with
// AddQuery, which copies an attribute's tables the first time the clone
// writes them; and publishes the clone with one atomic store. A learn thus
// copies only the tables its query touches, plus a numeric attribute's
// range delta but never its range base (rangeIndex), and readers keep using
// the old snapshot, unlocked, until they next load.
//
// Ownership is a tag: every Stats carries an owner number, every table the
// number of the Stats that created or copied it, and a Stats writes a table
// in place only when the numbers match. Clone gives both sides new numbers,
// so neither writes the tables they now share.

// owners numbers Stats; 0 is never issued.
var owners atomic.Uint64

func newOwner() uint64 { return owners.Add(1) }

// Clone returns a copy of the statistics that AddQuery can write without
// touching the original, so a published original stays safe for lock-free
// concurrent readers. The two share every table until one of them writes
// it; writes to either side after the Clone stay invisible to the other.
// Clone is a reader: it may run concurrently with other readers, but not
// with AddQuery on the same Stats.
func (s *Stats) Clone() *Stats {
	s.owner.Store(newOwner())
	out := &Stats{n: s.n, attrs: maps.Clone(s.attrs), byFreq: slices.Clone(s.byFreq)}
	out.owner.Store(newOwner())
	return out
}

// copyFor returns a copy of the tables that owner may write. The range base
// stays shared: nothing writes it once built.
func (t *attrStats) copyFor(owner uint64) *attrStats {
	out := &attrStats{owner: owner, name: t.name, usage: t.usage, occ: maps.Clone(t.occ)}
	if st := t.splits; st != nil {
		out.splits = &SplitTable{Interval: st.Interval, start: maps.Clone(st.start), end: maps.Clone(st.end)}
	}
	if ri := t.ranges; ri != nil {
		out.ranges = &rangeIndex{los: ri.los, his: ri.his, dlos: slices.Clone(ri.dlos), dhis: slices.Clone(ri.dhis)}
	}
	return out
}

// Clone returns a copy of the index that Add can extend without touching the
// original: the sealed chunks, immutable once full, are shared, and only the
// open chunk is copied.
func (idx *CondIndex) Clone() *CondIndex {
	n := len(idx.sealed)
	open := make([]*sqlparse.Query, len(idx.open), condChunk)
	copy(open, idx.open)
	// Capping the shared list makes the clone's first seal reallocate it,
	// so neither side's seal lands in the other's backing array.
	return &CondIndex{sealed: idx.sealed[:n:n], open: open}
}
