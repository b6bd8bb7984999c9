package durable

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/resilience/faultinject"
)

// The recovery edge cases the tentpole names explicitly: zero-length WAL,
// torn final record, bit-flipped segment page, manifest pointing at a
// missing file, and a double crash during recovery itself. Each must
// either recover cleanly or degrade with the quarantined range reported —
// never refuse to start, never serve wrong rows.

// seedStore ingests rows [0, n) at segRows and closes cleanly.
func seedStore(t *testing.T, dir string, n, segRows int) {
	t.Helper()
	st, err := Create(dir, testSchema(), Options{SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(st, 0, n); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryZeroLengthWAL(t *testing.T) {
	const n, segRows = 50, 16
	dir := t.TempDir()
	seedStore(t, dir, n, segRows)
	if err := os.Truncate(dirFile(t, dir, "wal-"), 0); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("zero-length WAL must not fail Open: %v", err)
	}
	// The tail (rows past the last seal) is gone; the sealed prefix serves.
	assertStoreMatches(t, st, memRelation(t, (n/segRows)*segRows), false)
	stats := st.Stats()
	if !stats.RecoveredTorn || stats.RecoveredTailRows != 0 {
		t.Errorf("stats = torn:%v tail:%d, want torn:true tail:0", stats.RecoveredTorn, stats.RecoveredTailRows)
	}
	// The writable open rotated to a fresh, appendable log.
	if _, err := ingest(st, (n/segRows)*segRows, n); err != nil {
		t.Fatalf("append after zero-length-WAL recovery: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	assertStoreMatches(t, st2, memRelation(t, n), true)
}

func TestRecoveryTornFinalRecord(t *testing.T) {
	const n, segRows = 53, 16
	dir := t.TempDir()
	seedStore(t, dir, n, segRows)
	wal := dirFile(t, dir, "wal-")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("torn final record must not fail Open: %v", err)
	}
	assertStoreMatches(t, st, memRelation(t, n-1), false)
	if !st.Stats().RecoveredTorn {
		t.Error("torn tail not reported")
	}
	// Repair truncated the tear; appending continues from row n-1.
	if _, err := ingest(st, n-1, n+10); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	assertStoreMatches(t, st2, memRelation(t, n+10), false)
}

// TestRecoveryCodeOutsideDictionary: a categorical page whose checksum
// holds but whose codes overrun its dictionary (a writer bug, not a torn
// write) is rejected by the relation's bulk append, and the store
// quarantines the segment instead of serving or panicking on it.
func TestRecoveryCodeOutsideDictionary(t *testing.T) {
	const n, segRows = 100, 16
	dir := t.TempDir()
	seedStore(t, dir, n, segRows)
	path := filepath.Join(dir, segFileName(segRows, 2*segRows))
	hdr, hdrEnd, err := readSegHeader(path, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Re-frame the neighborhood page with its last code past the dictionary.
	pg := hdr.Pages[0]
	framed := data[hdrEnd+pg.Off : hdrEnd+pg.Off+pg.Len]
	payload := append([]byte(nil), framed[4:len(framed)-4]...)
	binary.LittleEndian.PutUint32(payload[len(payload)-4:], 1<<20)
	copy(framed, framePage(nil, payload))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rel, err := st.Relation("ListProperty")
	if err != nil {
		t.Fatal(err)
	}
	q := st.Quarantined()
	if len(q) != 1 || q[0].Lo != segRows || q[0].Hi != 2*segRows || !strings.Contains(q[0].Reason, "outside its dictionary") {
		t.Fatalf("quarantine records = %+v, want one over [%d,%d) naming the dictionary", q, segRows, 2*segRows)
	}
	mem := memRelation(t, n)
	if rel.Len() != n-segRows {
		t.Fatalf("surviving relation has %d rows, want %d", rel.Len(), n-segRows)
	}
	for i := 0; i < rel.Len(); i++ {
		j := i
		if i >= segRows {
			j = i + segRows
		}
		if !sameTuple(rel.Row(i), mem.Row(j)) {
			t.Fatalf("surviving row %d != reference row %d", i, j)
		}
	}
}

func TestRecoveryBitFlippedSegmentPage(t *testing.T) {
	const n, segRows = 100, 16
	dir := t.TempDir()
	seedStore(t, dir, n, segRows)
	// Flip a byte near the end of the second segment file: a column page,
	// not the header — quarantine must wait until Relation() reads it.
	corrupt(t, filepath.Join(dir, segFileName(segRows, 2*segRows)), -2)

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("bit-flipped segment must not fail Open: %v", err)
	}
	defer st.Close()
	if st.Degraded() {
		t.Fatal("column-page damage detected before any page was read")
	}
	rel, err := st.Relation("ListProperty")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded() {
		t.Fatal("corrupt column page not quarantined when read")
	}
	// Surviving rows: all but the quarantined segment's span.
	mem := memRelation(t, n)
	wantLen := n - segRows
	if rel.Len() != wantLen {
		t.Fatalf("surviving relation has %d rows, want %d", rel.Len(), wantLen)
	}
	for i := 0; i < rel.Len(); i++ {
		j := i
		if i >= segRows {
			j = i + segRows // skip the quarantined span in the reference
		}
		if !sameTuple(rel.Row(i), mem.Row(j)) {
			t.Fatalf("surviving row %d != reference row %d", i, j)
		}
	}
	q := st.Quarantined()
	if len(q) != 1 || q[0].Lo != segRows || q[0].Hi != 2*segRows {
		t.Fatalf("quarantine records = %+v, want one spanning [%d,%d)", q, segRows, 2*segRows)
	}
	if !strings.Contains(q[0].Reason, "checksum") && !strings.Contains(q[0].Reason, "corrupt") {
		t.Errorf("quarantine reason %q does not name the corruption", q[0].Reason)
	}
	stats := st.Stats()
	if !stats.Degraded || stats.QuarantinedRows != segRows {
		t.Errorf("stats degraded=%v quarantinedRows=%d, want true/%d", stats.Degraded, stats.QuarantinedRows, segRows)
	}
	// No page is kept: a second Relation() reads the pages again and must
	// serve the same surviving rows without quarantining anything twice.
	rel2, err := st.Relation("ListProperty")
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Len() != wantLen {
		t.Fatalf("second Relation() has %d rows, want %d", rel2.Len(), wantLen)
	}
	for i := 0; i < rel2.Len(); i++ {
		if !sameTuple(rel2.Row(i), rel.Row(i)) {
			t.Fatalf("second Relation() row %d differs from the first", i)
		}
	}
	if q := st.Quarantined(); len(q) != 1 {
		t.Fatalf("quarantine records after a second Relation() = %+v, want one", q)
	}
}

func TestRecoveryBitFlippedSegmentHeader(t *testing.T) {
	const n, segRows = 64, 16
	dir := t.TempDir()
	seedStore(t, dir, n, segRows)
	// Byte 6 sits inside the header page payload: quarantined eagerly at Open.
	corrupt(t, filepath.Join(dir, segFileName(0, segRows)), 6)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("bit-flipped header must not fail Open: %v", err)
	}
	defer st.Close()
	if !st.Degraded() {
		t.Fatal("corrupt header not quarantined at Open")
	}
	rel, err := st.Relation("ListProperty")
	if err != nil {
		t.Fatal(err)
	}
	if want := n - segRows; rel.Len() != want {
		t.Fatalf("surviving relation has %d rows, want %d", rel.Len(), want)
	}
}

func TestRecoveryManifestPointsAtMissingFile(t *testing.T) {
	const n, segRows = 100, 16
	dir := t.TempDir()
	seedStore(t, dir, n, segRows)
	missing := segFileName(2*segRows, 3*segRows)
	if err := os.Remove(filepath.Join(dir, missing)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("missing segment file must not fail Open: %v", err)
	}
	defer st.Close()
	q := st.Quarantined()
	if len(q) != 1 || q[0].File != missing || !strings.Contains(q[0].Reason, "missing") {
		t.Fatalf("quarantine records = %+v, want one naming %s as missing", q, missing)
	}
	rel, err := st.Relation("ListProperty")
	if err != nil {
		t.Fatal(err)
	}
	if want := n - segRows; rel.Len() != want {
		t.Fatalf("surviving relation has %d rows, want %d", rel.Len(), want)
	}
}

func TestRecoveryCorruptManifestIsAnError(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 40, 16)
	corrupt(t, filepath.Join(dir, manifestName), 10)
	_, err := Open(dir, Options{})
	if err == nil {
		t.Fatal("Open accepted a corrupt manifest")
	}
	if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "manifest") {
		t.Errorf("error %v does not identify the manifest", err)
	}
}

func TestRecoveryMissingWAL(t *testing.T) {
	const n, segRows = 40, 16
	dir := t.TempDir()
	seedStore(t, dir, n, segRows)
	if err := os.Remove(dirFile(t, dir, "wal-")); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("missing WAL must not fail Open: %v", err)
	}
	defer st.Close()
	assertStoreMatches(t, st, memRelation(t, (n/segRows)*segRows), false)
}

// TestRecoveryDoubleCrash crashes an ingest with a torn write, then
// crashes recovery itself (at both durable.recover fire points), then
// recovers for real. No attempt may lose acknowledged rows or serve a
// non-prefix.
func TestRecoveryDoubleCrash(t *testing.T) {
	const segRows = 16
	dir := t.TempDir()
	boom := errors.New("injected crash")

	// Crash the ingest mid-WAL-record at append #41's write.
	inj := faultinject.New(11)
	inj.Set(faultinject.SiteDurableWrite, faultinject.Rule{Err: boom, ShortWrite: true, SkipFirst: walWriteHitsBefore(t, 41, segRows)})
	restore := faultinject.Activate(inj)
	st, err := Create(dir, testSchema(), Options{SegmentRows: segRows, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	acked, err := ingest(st, 0, 1000)
	if err == nil {
		t.Fatal("ingest survived the injected crash")
	}
	st.Abandon()
	restore()

	// Crash recovery itself at each of its fire points, twice over.
	for k := uint64(0); k < 2; k++ {
		inj := faultinject.New(13)
		inj.Set(faultinject.SiteDurableRecover, faultinject.Rule{Err: boom, SkipFirst: k})
		restore := faultinject.Activate(inj)
		_, err := Open(dir, Options{})
		restore()
		if err == nil {
			// Only the torn-tail repair point exists when the tear landed
			// exactly on a record boundary; a successful open is fine then.
			continue
		}
		if !errors.Is(err, boom) {
			t.Fatalf("recovery crash %d: unexpected error %v", k, err)
		}
	}

	// Third attempt: clean. Everything acknowledged must be there.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("final recovery failed: %v", err)
	}
	defer st2.Close()
	got := st2.Stats().SealedRows + st2.Stats().TailRows
	if got < acked {
		t.Fatalf("recovered %d rows, %d were acknowledged under SyncAlways", got, acked)
	}
	assertStoreMatches(t, st2, memRelation(t, got), true)
}

// walWriteHitsBefore counts durable.write hits a clean ingest of n appends
// makes before append #n's own WAL record write, so tests can target it.
func walWriteHitsBefore(t *testing.T, n, segRows int) uint64 {
	t.Helper()
	inj := faultinject.New(1)
	restore := faultinject.Activate(inj)
	defer restore()
	dir := t.TempDir()
	st, err := Create(dir, testSchema(), Options{SegmentRows: segRows, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(st, 0, n-1); err != nil {
		t.Fatal(err)
	}
	hits := inj.Hits(faultinject.SiteDurableWrite)
	st.Abandon()
	return hits
}
