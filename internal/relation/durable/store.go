package durable

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/resilience/faultinject"
)

// SyncPolicy decides when acknowledged WAL appends become fsync-durable.
// Structural writes (segment spill, WAL rotation, manifest replace) always
// fsync regardless of policy — the policy only trades the durability window
// of the active tail against append throughput.
type SyncPolicy int

const (
	// SyncBatch fsyncs the WAL every Options.SyncEvery appends (and on
	// seal, Sync, Close). A crash can lose up to SyncEvery acknowledged
	// tail rows, never anything sealed. The default.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every append: an acknowledged row survives
	// any crash.
	SyncAlways
	// SyncNone never fsyncs the WAL on the append path (seal, Sync, and
	// Close still do): the OS decides the tail's durability window.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "batch"
	}
}

// ParseSyncPolicy maps the -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "batch", "":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return SyncBatch, fmt.Errorf("durable: unknown sync policy %q (want always|batch|none)", s)
}

// DefaultSegmentRows is the spill size when Options.SegmentRows is 0: the
// buffered tail spills to a segment file every 4096 rows. 4096 rows × 8
// bytes is one 32 KiB column page per numeric attribute.
const DefaultSegmentRows = 4096

// Options configures Create/Open.
type Options struct {
	// SegmentRows is the sealed-segment span (Create only; Open takes it
	// from the manifest). 0 means DefaultSegmentRows.
	SegmentRows int
	// Sync is the WAL durability policy.
	Sync SyncPolicy
	// SyncEvery is SyncBatch's fsync interval in appends; 0 means 256.
	SyncEvery int
	// ReadOnly opens without tail repair, WAL rotation, garbage sweeping,
	// or append support — safe on a directory another process owns.
	ReadOnly bool
}

// Quarantine records one segment excluded from service: its manifest span
// and why. Quarantined rows are absent from Relation()'s result; the
// surviving rows close ranks.
type Quarantine struct {
	File   string `json:"file"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Reason string `json:"reason"`
}

// diskSegment is one manifest-listed segment file plus its header state.
// The header (span, schema, page directory) loads and verifies at Open;
// column pages are read, checksum-verified, by every Relation() call and
// kept by none.
type diskSegment struct {
	meta segMeta

	mu sync.Mutex
	//lint:guardedby mu
	hdr *segHeader
	//lint:guardedby mu
	hdrEnd int64
	//lint:guardedby mu
	bad bool
	//lint:guardedby mu
	reason string
}

// Store is a crash-consistent on-disk segment store. One writer (or any
// number of read-only openers) per directory; Append/Sync/Close serialize
// on an internal mutex, Relation takes a snapshot under it and does its
// page I/O outside.
type Store struct {
	dir    string
	schema *relation.Schema
	opts   Options

	mu sync.Mutex
	//lint:guardedby mu
	gen uint64
	//lint:guardedby mu
	segRows int
	//lint:guardedby mu
	segs []*diskSegment
	//lint:guardedby mu
	tail []relation.Tuple
	//lint:guardedby mu
	wal *walWriter
	//lint:guardedby mu
	closed bool
	//lint:guardedby mu
	failed bool

	quarMu sync.Mutex
	//lint:guardedby quarMu
	quar []Quarantine

	recoveredRows int
	recoveredTorn bool

	pageWrites   atomic.Uint64
	fsyncs       atomic.Uint64
	walRecords   atomic.Uint64
	bytesWritten atomic.Uint64
	colLoads     atomic.Uint64
	loadedBytes  atomic.Uint64
}

func (o *Options) normalize() {
	if o.SegmentRows <= 0 {
		o.SegmentRows = DefaultSegmentRows
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 256
	}
}

// Create initializes a new store in dir (created if missing, must not
// already hold one) and leaves it open for appends.
func Create(dir string, schema *relation.Schema, opts Options) (*Store, error) {
	opts.normalize()
	if opts.ReadOnly {
		return nil, fmt.Errorf("durable: cannot Create read-only")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("durable: %s already holds a store; use Open", dir)
	}
	s := &Store{dir: dir, schema: schema, opts: opts, gen: 1, segRows: opts.SegmentRows}
	ctx := context.Background()
	wal, err := s.createWAL(ctx, s.gen, 0)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	if err := s.writeManifest(ctx, s.manifestLocked()); err != nil {
		wal.f.Close()
		return nil, err
	}
	return s, nil
}

// manifestLocked renders the store's current state as a manifest payload.
// Caller holds s.mu (or is still single-threaded in Create/Open).
func (s *Store) manifestLocked() *manifest {
	m := &manifest{
		Magic:       manifestMagic,
		Generation:  s.gen,
		SegmentRows: s.segRows,
		Schema:      schemaMeta(s.schema),
		Segments:    make([]segMeta, len(s.segs)),
		WAL:         s.wal.name,
		WALAfter:    s.wal.afterRows,
	}
	for i, seg := range s.segs {
		m.Segments[i] = seg.meta
	}
	return m
}

// Open recovers the store in dir: load the manifest, validate every listed
// segment (quarantining rather than failing), replay the WAL up to the
// first torn or corrupt record, and — unless ReadOnly — repair the torn
// tail, sweep garbage, and finish any seal the crash interrupted. The
// durable.recover fault site fires before the replay and before the repair
// truncation, so the chaos suite can crash recovery itself.
func Open(dir string, opts Options) (*Store, error) {
	opts.normalize()
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	schema, err := metaSchema(m.Schema)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, schema: schema, opts: opts, gen: m.Generation, segRows: m.SegmentRows}
	ctx := context.Background()

	for _, sm := range m.Segments {
		seg := &diskSegment{meta: sm}
		s.segs = append(s.segs, seg)
		path := filepath.Join(dir, sm.File)
		fi, err := os.Stat(path)
		switch {
		case err != nil:
			s.quarantine(seg, fmt.Sprintf("segment file missing: %v", err))
			continue
		case fi.Size() != sm.Bytes:
			s.quarantine(seg, fmt.Sprintf("segment file is %d bytes, manifest recorded %d", fi.Size(), sm.Bytes))
			continue
		}
		// Header (span, schema, page directory) verifies now; column pages
		// verify as Relation() reads them.
		if _, err := s.ensureHeader(seg); err != nil {
			continue // quarantined inside
		}
	}

	if err := faultinject.Inject(ctx, faultinject.SiteDurableRecover); err != nil {
		return nil, err
	}
	walPath := filepath.Join(dir, m.WAL)
	rows, good, torn, err := replayWAL(walPath, schema, m.Generation, m.WALAfter)
	if err != nil {
		return nil, err
	}
	s.tail = rows
	s.recoveredRows = len(rows)
	s.recoveredTorn = torn
	// Bookkeeping-only writer (afterRows, name); the writable paths below
	// replace it with one holding an open file.
	s.wal = &walWriter{name: m.WAL, afterRows: m.WALAfter}

	if opts.ReadOnly {
		return s, nil
	}

	// Writable: make the in-memory view and the directory agree again.
	// Each step is idempotent — a crash in here replays at the next Open.
	if torn && good > 0 {
		// Torn tail: cut the damage off so the log is appendable again.
		if err := faultinject.Inject(ctx, faultinject.SiteDurableRecover); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(walPath, os.O_WRONLY, 0)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, err
		}
		if err := s.fsyncFile(ctx, f); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
	}
	if torn && good == 0 {
		// The WAL itself is unusable (missing, empty, or header-damaged):
		// rotate to a fresh log under a new generation.
		wal, err := s.createWAL(ctx, s.gen+1, m.WALAfter)
		if err != nil {
			return nil, err
		}
		s.wal = wal
		s.gen++
		if err := s.writeManifest(ctx, s.manifestLocked()); err != nil {
			wal.f.Close()
			return nil, err
		}
	} else {
		f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return nil, err
		}
		s.wal = &walWriter{f: f, name: m.WAL, afterRows: m.WALAfter}
	}
	s.sweepGarbage()
	// Finish a seal the crash interrupted: the WAL holds >= a full segment.
	if err := s.sealFullLocked(ctx); err != nil {
		s.wal.f.Close()
		return nil, err
	}
	return s, nil
}

// sweepGarbage removes files no consistent view can reference: tmp files
// from interrupted atomic writes, superseded WALs, and segment files the
// manifest does not list (orphans of interrupted seals). Best-effort.
func (s *Store) sweepGarbage() {
	live := map[string]bool{manifestName: true, s.wal.name: true}
	for _, seg := range s.segs {
		live[seg.meta.File] = true
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if live[name] || e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") || strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "seg-") {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// quarantine marks seg excluded from service and records why.
func (s *Store) quarantine(seg *diskSegment, reason string) {
	seg.bad = true
	seg.reason = reason
	s.quarMu.Lock()
	s.quar = append(s.quar, Quarantine{File: seg.meta.File, Lo: seg.meta.Lo, Hi: seg.meta.Hi, Reason: reason})
	s.quarMu.Unlock()
}

// ensureHeader loads seg's header page if not yet present, quarantining on
// damage, and returns it. Caller must not hold seg.mu; the returned header
// is immutable, so callers read it without the lock.
func (s *Store) ensureHeader(seg *diskSegment) (*segHeader, error) {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if err := s.ensureHeaderLocked(seg); err != nil {
		return nil, err
	}
	return seg.hdr, nil
}

func (s *Store) ensureHeaderLocked(seg *diskSegment) error {
	if seg.bad {
		return fmt.Errorf("durable: segment %s quarantined: %s", seg.meta.File, seg.reason)
	}
	if seg.hdr != nil {
		return nil
	}
	hdr, hdrEnd, err := readSegHeader(filepath.Join(s.dir, seg.meta.File), s.schema)
	if err != nil {
		s.quarantine(seg, err.Error())
		return err
	}
	if hdr.Lo != seg.meta.Lo || hdr.Hi != seg.meta.Hi {
		err := fmt.Errorf("segment header spans [%d,%d), manifest recorded [%d,%d)", hdr.Lo, hdr.Hi, seg.meta.Lo, seg.meta.Hi)
		s.quarantine(seg, err.Error())
		return err
	}
	seg.hdr, seg.hdrEnd = hdr, hdrEnd
	return nil
}

// appendSegment reads seg's column pages, verifying each checksum, and
// appends its rows to rel in one bulk append; nothing keeps the pages. A
// bad page, or pages the relation rejects, quarantine the whole segment
// and append nothing — its other pages are no longer trusted either.
func (s *Store) appendSegment(rel *relation.Relation, seg *diskSegment) {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if err := s.ensureHeaderLocked(seg); err != nil {
		return
	}
	f, err := os.Open(filepath.Join(s.dir, seg.meta.File))
	if err != nil {
		s.quarantine(seg, err.Error())
		return
	}
	defer f.Close()
	pages := make([]relation.Page, s.schema.Len())
	for a := range pages {
		p, err := readSegColumn(f, seg.hdr, seg.hdrEnd, a, s.schema)
		if err != nil {
			s.quarantine(seg, err.Error())
			return
		}
		s.colLoads.Add(1)
		s.loadedBytes.Add(pageBytes(p))
		pages[a] = p
	}
	if err := rel.AppendPages(pages); err != nil {
		s.quarantine(seg, fmt.Sprintf("%v: %v", ErrCorrupt, err))
	}
}

// Append adds one row: WAL record first (made durable per the sync
// policy), then the in-memory tail — and, at segment boundaries, the seal
// sequence (spill, WAL rotation, manifest flip). An error means the row is
// not acknowledged and the store is failed: like a crash, the only way
// forward is Close and re-Open, which recovers every acknowledged durable
// row.
func (s *Store) Append(t relation.Tuple) error {
	return s.AppendContext(context.Background(), t)
}

// AppendContext is Append with a caller context (fault-injection rules
// with Stall honor its deadline).
func (s *Store) AppendContext(ctx context.Context, t relation.Tuple) error {
	if len(t) != s.schema.Len() {
		return fmt.Errorf("durable: tuple has %d cells, schema has %d", len(t), s.schema.Len())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return fmt.Errorf("durable: store is closed")
	case s.failed:
		return fmt.Errorf("durable: store failed mid-write; re-Open to recover")
	case s.opts.ReadOnly:
		return fmt.Errorf("durable: store is read-only")
	}
	if err := s.walAppend(ctx, s.wal, t); err != nil {
		s.failed = true
		return err
	}
	if err := s.walSync(ctx, s.wal, false); err != nil {
		s.failed = true
		return err
	}
	s.tail = append(s.tail, t)
	if err := s.sealFullLocked(ctx); err != nil {
		s.failed = true
		return err
	}
	return nil
}

// sealFullLocked spills every full segment the buffered tail covers (on
// Append, and to finish Open's interrupted seal).
func (s *Store) sealFullLocked(ctx context.Context) error {
	for len(s.tail) >= s.segRows {
		if err := s.sealLocked(ctx, s.wal.afterRows, s.tail[:s.segRows]); err != nil {
			return err
		}
		// Reslice into a fresh array so the spilled prefix is collectable —
		// the constant-memory contract of the -spill ingest path.
		s.tail = append([]relation.Tuple(nil), s.tail[s.segRows:]...)
	}
	return nil
}

// sealLocked runs the seal sequence for rows, the span [lo, hi): spill the
// segment file (durable before it is referenced), rotate the WAL to a fresh
// log whose afterRows is the new sealed high-water mark, flip the manifest,
// and retire the old log. A crash between any two steps leaves the old
// manifest + old WAL fully consistent; the new files are garbage until the
// manifest names them.
func (s *Store) sealLocked(ctx context.Context, lo int, rows []relation.Tuple) error {
	if err := s.walSync(ctx, s.wal, true); err != nil {
		return err
	}
	hi := lo + len(rows)
	name, size, err := s.writeSegment(ctx, lo, rows)
	if err != nil {
		return err
	}
	wal, err := s.createWAL(ctx, s.gen+1, hi)
	if err != nil {
		return err
	}
	seg := &diskSegment{meta: segMeta{File: name, Lo: lo, Hi: hi, Bytes: size}}
	oldWAL := s.wal
	s.segs = append(s.segs, seg)
	s.wal = wal
	s.gen++
	if err := s.writeManifest(ctx, s.manifestLocked()); err != nil {
		// Roll the in-memory view back so it matches the manifest on disk;
		// the already-written files are garbage for the next Open to sweep.
		s.segs = s.segs[:len(s.segs)-1]
		s.wal = oldWAL
		s.gen--
		wal.f.Close()
		return err
	}
	oldWAL.f.Close()
	os.Remove(filepath.Join(s.dir, oldWAL.name))
	return nil
}

// Sync forces the WAL durable regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.opts.ReadOnly || s.failed {
		return nil
	}
	return s.walSync(context.Background(), s.wal, true)
}

// Close syncs the WAL and releases the store. Further Appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil || s.opts.ReadOnly {
		return nil
	}
	var err error
	if !s.failed {
		err = s.walSync(context.Background(), s.wal, true)
	}
	if cerr := s.wal.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon releases the store WITHOUT syncing — the in-process equivalent
// of pulling the power mid-ingest. Rows acknowledged but not yet fsynced
// may or may not survive, exactly as after a real crash; the chaos suite
// pairs this with fault-injected short writes to cover both.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.wal != nil && !s.opts.ReadOnly {
		s.wal.f.Close()
	}
}

// SealedRows returns the rows covered by manifest-listed segments,
// quarantined or not. Stats().TailRows counts the replayed or buffered rows
// beyond them.
func (s *Store) SealedRows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.afterRows
}

// Schema returns the store's schema (from the manifest, for Open).
func (s *Store) Schema() *relation.Schema { return s.schema }

// Degraded reports whether any segment is quarantined.
func (s *Store) Degraded() bool {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	return len(s.quar) > 0
}

// Quarantined returns a copy of the quarantine records.
func (s *Store) Quarantined() []Quarantine {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	return append([]Quarantine(nil), s.quar...)
}

// snapshot returns the segment list and tail under the mutex; page I/O
// happens outside it.
func (s *Store) snapshot() (segs []*diskSegment, tail []relation.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs = append(segs, s.segs...)
	return segs, s.tail[:len(s.tail):len(s.tail)]
}

// Relation materializes the surviving rows — every non-quarantined sealed
// segment in span order, then the tail — into a fresh relation. Each
// segment's column pages are read from disk, checksum-verified and
// appended in one bulk append (relation.AppendPages), on every call; none
// is kept. No tuple is built for a sealed row. A segment failing here is
// quarantined and skipped, so the result is always the best
// currently-servable view.
func (s *Store) Relation(name string) (*relation.Relation, error) {
	segs, tail := s.snapshot()
	rel := relation.New(name, s.schema)
	total := len(tail)
	for _, seg := range segs {
		total += seg.meta.Hi - seg.meta.Lo
	}
	rel.Grow(total)
	for _, seg := range segs {
		s.appendSegment(rel, seg)
	}
	for _, t := range tail {
		rel.MustAppend(t)
	}
	return rel, nil
}

// Stats is the durability snapshot behind healthz's "durability" block.
type Stats struct {
	Generation  uint64 `json:"generation"`
	SegmentRows int    `json:"segmentRows"`
	Segments    int    `json:"segments"`
	SealedRows  int    `json:"sealedRows"`
	TailRows    int    `json:"tailRows"`
	SyncPolicy  string `json:"syncPolicy"`
	ReadOnly    bool   `json:"readOnly"`

	Degraded        bool         `json:"degraded"`
	Quarantined     []Quarantine `json:"quarantined,omitempty"`
	QuarantinedRows int          `json:"quarantinedRows"`

	RecoveredTailRows int  `json:"recoveredTailRows"`
	RecoveredTorn     bool `json:"recoveredTorn"`

	PageWrites   uint64 `json:"pageWrites"`
	BytesWritten uint64 `json:"bytesWritten"`
	Fsyncs       uint64 `json:"fsyncs"`
	WALRecords   uint64 `json:"walRecords"`
	ColumnLoads  uint64 `json:"columnLoads"`
	LoadedBytes  uint64 `json:"loadedBytes"`
}

// Stats returns a point-in-time durability snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Generation:        s.gen,
		SegmentRows:       s.segRows,
		Segments:          len(s.segs),
		SealedRows:        s.wal.afterRows,
		TailRows:          len(s.tail),
		SyncPolicy:        s.opts.Sync.String(),
		ReadOnly:          s.opts.ReadOnly,
		RecoveredTailRows: s.recoveredRows,
		RecoveredTorn:     s.recoveredTorn,
	}
	s.mu.Unlock()
	st.Quarantined = s.Quarantined()
	st.Degraded = len(st.Quarantined) > 0
	for _, q := range st.Quarantined {
		st.QuarantinedRows += q.Hi - q.Lo
	}
	st.PageWrites = s.pageWrites.Load()
	st.BytesWritten = s.bytesWritten.Load()
	st.Fsyncs = s.fsyncs.Load()
	st.WALRecords = s.walRecords.Load()
	st.ColumnLoads = s.colLoads.Load()
	st.LoadedBytes = s.loadedBytes.Load()
	return st
}
