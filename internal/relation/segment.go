package relation

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Segmented storage (DESIGN.md §14). The row store is divided into sealed
// segments — immutable, contiguous spans of DefaultSegmentRows rows whose
// derived artifacts (zone maps, columnar page spans) are built once and
// never invalidated — plus one active tail holding the rows appended since
// the last seal. Append only touches the tail: it lands the row, bumps the
// data generation, and, when the tail reaches the segment size, seals the
// full spans by publishing new segment descriptors. Nothing about the
// sealed prefix is recomputed.
//
// The physical layout stays the flat, contiguous arrays the categorizer and
// the vectorized engine already consume (rows behind the RCU pointer, one
// projection array per attribute): a segment is a logical [lo, hi) span over
// them, not a separate allocation. What sealing freezes is the *maintenance
// contract* — the columnar prefix covering sealed rows is append-only (the
// one exception, a dictionary remap when a brand-new categorical value
// arrives, rewrites codes without re-reading any sealed row), per-segment
// zone maps are computed once, and cached conjunct bitmaps extend by
// evaluating only rows past their previous coverage. The drop-everything
// invalidation that made every Append cost O(total rows) on the next read is
// gone; see column.go and vselect.go for the incremental paths.

// DefaultSegmentRows is the sealed-segment span when SetSegmentRows was not
// called. A multiple of 64 keeps segment boundaries word-aligned in the
// bitmap kernels; 4096 rows × 8 bytes is one 32 KiB column page per numeric
// attribute — small enough that a single segment scan stays in L1/L2, large
// enough that zone-map metadata is negligible next to the data.
const DefaultSegmentRows = 4096

// segState is a relation's segment bookkeeping: the sealed-segment list
// behind an RCU pointer (readers load it once per operation, Append
// publishes successors under the writer mutex) and the storage counters.
type segState struct {
	// rowsPerSeg is the configured segment size; 0 means DefaultSegmentRows.
	// Writable only while the relation is empty (SetSegmentRows).
	rowsPerSeg atomic.Int64
	// sealed is the published list of sealed segments, ordered by span,
	// covering [0, sealedRows) exactly. nil until the first seal.
	sealed atomic.Pointer[[]*segment]
	// seals counts seal events; zonePruned/zoneScanned count per-conjunct
	// zone-map decisions over fully-covered sealed segments.
	seals       atomic.Uint64
	zonePruned  atomic.Uint64
	zoneScanned atomic.Uint64
	// sealHook, when set, is invoked by Append after the writer mutex is
	// released, once per append that sealed rows, with the newly sealed
	// span [lo, hi). Written only via SetSealHook while the relation is
	// empty; read under the writer mutex.
	sealHook func(lo, hi int)
}

// segment is one sealed span [lo, hi). The descriptor is immutable; the
// zone maps hanging off it are built lazily, once per attribute, from data
// that can no longer change.
type segment struct {
	lo, hi int

	// mu guards the lazily-built zone maps below. Contention is one map
	// lookup per (conjunct build, segment); builds happen once.
	mu sync.Mutex
	//lint:guardedby mu
	nums map[string]*numZone
	//lint:guardedby mu
	cats map[string]*catZone
}

// segmentRows returns the relation's segment size.
func (r *Relation) segmentRows() int {
	if n := r.seg.rowsPerSeg.Load(); n > 0 {
		return int(n)
	}
	return DefaultSegmentRows
}

// SetSegmentRows fixes the sealed-segment size. It must be called before
// any row is appended: segment boundaries are immutable once rows exist.
// The default (also reachable by never calling this) is DefaultSegmentRows.
// Small sizes are intended for tests; production relations should keep the
// default.
func (r *Relation) SetSegmentRows(n int) error {
	if n < 1 {
		return fmt.Errorf("relation %s: segment size %d, want >= 1", r.Name, n)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Len() > 0 {
		return fmt.Errorf("relation %s: cannot change segment size with %d rows present", r.Name, r.Len())
	}
	r.seg.rowsPerSeg.Store(int64(n))
	return nil
}

// SetSealHook registers fn to be called after every Append that seals one
// or more segment spans, with the newly sealed range [lo, hi) (a multiple
// of the segment size). The call happens on the appending goroutine, after
// the writer mutex is released; the sealed rows are immutable by then, so
// fn may read them without synchronization. The durable store (durable
// package) uses this to spill sealed spans to disk in lockstep with the
// in-memory seal. Like SetSegmentRows, the hook must be installed before
// any row is appended, and there is at most one.
func (r *Relation) SetSealHook(fn func(lo, hi int)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Len() > 0 {
		return fmt.Errorf("relation %s: cannot install seal hook with %d rows present", r.Name, r.Len())
	}
	r.seg.sealHook = fn
	return nil
}

// sealedSegments returns the published sealed-segment list (never written
// in place; successors are whole new slices).
func (r *Relation) sealedSegments() []*segment {
	if p := r.seg.sealed.Load(); p != nil {
		return *p
	}
	return nil
}

// sealedRows returns the number of rows covered by sealed segments.
func (r *Relation) sealedRows() int {
	segs := r.sealedSegments()
	if len(segs) == 0 {
		return 0
	}
	return segs[len(segs)-1].hi
}

// maybeSeal seals every full segment span the tail now covers. Called with
// r.mu held by Append, after the new row list is published.
func (r *Relation) maybeSeal(total int) {
	segRows := r.segmentRows()
	cur := r.sealedSegments()
	hi := 0
	if len(cur) > 0 {
		hi = cur[len(cur)-1].hi
	}
	if total-hi < segRows {
		return
	}
	next := make([]*segment, len(cur), len(cur)+(total-hi)/segRows)
	copy(next, cur)
	for total-hi >= segRows {
		next = append(next, &segment{lo: hi, hi: hi + segRows})
		hi += segRows
		r.seg.seals.Add(1)
	}
	r.seg.sealed.Store(&next)
}

// StorageStats is a point-in-time snapshot of the segmented store,
// surfaced through the server's healthz endpoint alongside SelectStats.
type StorageStats struct {
	// SegmentRows is the sealed-segment span size.
	SegmentRows int `json:"segmentRows"`
	// Segments is the number of sealed segments; SealedRows the rows they
	// cover; TailRows the active tail beyond them.
	Segments   int `json:"segments"`
	SealedRows int `json:"sealedRows"`
	TailRows   int `json:"tailRows"`
	// SealedBytes approximates the bytes of columnar artifacts covering the
	// sealed prefix: projection pages plus zone-map metadata.
	SealedBytes uint64 `json:"sealedBytes"`
	// Seals counts seal events since the relation was created.
	Seals uint64 `json:"seals"`
	// ZonePruned / ZoneScanned count zone-map decisions: sealed segments
	// skipped outright vs scanned, summed over all conjunct-bitmap builds.
	ZonePruned  uint64 `json:"zonePruned"`
	ZoneScanned uint64 `json:"zoneScanned"`
}

// StorageStats returns a snapshot of the segmented store's counters.
func (r *Relation) StorageStats() StorageStats {
	segs := r.sealedSegments()
	sealed := 0
	if len(segs) > 0 {
		sealed = segs[len(segs)-1].hi
	}
	s := StorageStats{
		SegmentRows: r.segmentRows(),
		Segments:    len(segs),
		SealedRows:  sealed,
		TailRows:    r.Len() - sealed,
		SealedBytes: r.sealedBytes(segs, sealed),
		Seals:       r.seg.seals.Load(),
		ZonePruned:  r.seg.zonePruned.Load(),
		ZoneScanned: r.seg.zoneScanned.Load(),
	}
	if s.TailRows < 0 { // racing a concurrent seal; clamp rather than lie
		s.TailRows = 0
	}
	return s
}

// sealedBytes approximates the sealed prefix's columnar footprint: the
// projection spans covering sealed rows plus the zone-map metadata.
func (r *Relation) sealedBytes(segs []*segment, sealed int) uint64 {
	var b uint64
	r.cols.mu.Lock()
	for _, e := range r.cols.num {
		b += 8 * uint64(min(len(e.col), sealed))
	}
	for _, e := range r.cols.cat {
		b += 4 * uint64(min(len(e.col.Codes), sealed))
		for _, v := range e.col.Dict {
			b += uint64(len(v)) + 16
		}
	}
	for _, s := range r.cols.sorted {
		b += 16 * uint64(min(len(s.rows), sealed))
	}
	r.cols.mu.Unlock()
	for _, seg := range segs {
		seg.mu.Lock()
		b += 32 * uint64(len(seg.nums))
		for _, z := range seg.cats {
			for _, v := range z.vals {
				b += uint64(len(v)) + 16
			}
		}
		seg.mu.Unlock()
	}
	return b
}
