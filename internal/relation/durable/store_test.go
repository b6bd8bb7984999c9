package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestRoundTrip(t *testing.T) {
	const n, segRows = 1000, 64
	dir := t.TempDir()
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

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	mem := memRelation(t, n)
	assertStoreMatches(t, st2, mem, true)

	stats := st2.Stats()
	if want := n / segRows; stats.Segments != want {
		t.Errorf("segments = %d, want %d", stats.Segments, want)
	}
	if want := (n / segRows) * segRows; stats.SealedRows != want {
		t.Errorf("sealedRows = %d, want %d", stats.SealedRows, want)
	}
	if want := n % segRows; stats.TailRows != want {
		t.Errorf("tailRows = %d, want %d", stats.TailRows, want)
	}
	if stats.Degraded || stats.RecoveredTorn {
		t.Errorf("clean reopen reports degraded=%v torn=%v", stats.Degraded, stats.RecoveredTorn)
	}
	if stats.SyncPolicy != "batch" {
		t.Errorf("sync policy = %q, want batch", stats.SyncPolicy)
	}
}

// TestOpenZonesFormatStore opens a store written before zone maps were
// deleted (testdata/dseg1-zones, written at commit 137b07d by Create with
// SegmentRows 16, ingest of testTuple rows 0-54, and Close: three 16-row
// segments whose headers carry a "zones" array, and a 7-row WAL tail)
// read-only and writable. Every row must read back as testTuple, each
// Relation() call must re-read and count the pages, and a writable open
// must go on appending and sealing segments, without zones, next to the old
// ones.
func TestOpenZonesFormatStore(t *testing.T) {
	const n, segRows = 55, 16
	dir := t.TempDir()
	ents, err := os.ReadDir("testdata/dseg1-zones")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join("testdata/dseg1-zones", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	oldSeg, err := os.ReadFile(filepath.Join(dir, segFileName(0, segRows)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(oldSeg, []byte(`"zones"`)) {
		t.Fatal("fixture segment header carries no zones")
	}
	check := func(st *Store, want int) {
		t.Helper()
		rel, err := st.Relation("ListProperty")
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != want {
			t.Fatalf("relation has %d rows, want %d", rel.Len(), want)
		}
		for i := 0; i < want; i++ {
			if !sameTuple(rel.Row(i), testTuple(i)) {
				t.Fatalf("row %d: got %v, want %v", i, rel.Row(i), testTuple(i))
			}
		}
		if st.Degraded() {
			t.Fatalf("store degraded: %+v", st.Quarantined())
		}
	}

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	check(ro, n)
	loaded := ro.Stats().LoadedBytes
	if loaded == 0 {
		t.Fatal("Relation() read no page bytes")
	}
	check(ro, n)
	if st := ro.Stats(); st.LoadedBytes != 2*loaded || st.Segments != 3 || st.TailRows != n-3*segRows {
		t.Fatalf("read-only stats after two Relation() calls: %+v, want loadedBytes %d", st, 2*loaded)
	}
	ro.Close()

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(st, n)
	if _, err := ingest(st, n, 70); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	newSeg, err := os.ReadFile(filepath.Join(dir, segFileName(3*segRows, 4*segRows)))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(newSeg, []byte(`"zones"`)) {
		t.Fatal("new segment header still carries zones")
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check(st2, 70)
	if got := st2.Stats().Segments; got != 4 {
		t.Fatalf("segments = %d, want 4", got)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncBatch, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			const n, segRows = 300, 64
			dir := t.TempDir()
			st, err := Create(dir, testSchema(), Options{SegmentRows: segRows, Sync: pol, SyncEvery: 10})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ingest(st, 0, n); err != nil {
				t.Fatal(err)
			}
			// Graceful close syncs regardless of policy: nothing is lost.
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			assertStoreMatches(t, st2, memRelation(t, n), false)
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "batch": SyncBatch, "": SyncBatch, "none": SyncNone, "NONE": SyncNone} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted junk")
	}
}

func TestReopenAndContinueAppending(t *testing.T) {
	const segRows = 16
	dir := t.TempDir()
	st, err := Create(dir, testSchema(), Options{SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(st, 0, 40); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(st2, 40, 100); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	assertStoreMatches(t, st3, memRelation(t, 100), true)
}

func TestReadOnlyOpen(t *testing.T) {
	const segRows = 16
	dir := t.TempDir()
	st, err := Create(dir, testSchema(), Options{SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(st, 0, 50); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the WAL tail; a read-only open must serve the intact prefix
	// without repairing the file.
	wal := dirFile(t, dir, "wal-")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.Append(testTuple(0)); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("read-only append: err = %v", err)
	}
	assertStoreMatches(t, st2, memRelation(t, 49), false)
	if !st2.Stats().RecoveredTorn {
		t.Error("torn tail not reported")
	}
	fi2, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() != fi.Size()-3 {
		t.Errorf("read-only open modified the WAL: %d -> %d bytes", fi.Size()-3, fi2.Size())
	}
}

func TestCreateRefusesExistingStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Create(dir, testSchema(), Options{}); err == nil {
		t.Fatal("Create over an existing store succeeded")
	}
}

func TestOpenMissingStore(t *testing.T) {
	_, err := Open(t.TempDir(), Options{})
	if err == nil || !IsNotExist(err) {
		t.Fatalf("Open of empty dir: err = %v, want IsNotExist", err)
	}
}

func TestAppendAfterFailureRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, testSchema(), Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(relation.Tuple{relation.StringValue("x")}); err == nil {
		t.Fatal("width-mismatched tuple accepted")
	}
	// Width errors are not failures; the store still works.
	if _, err := ingest(st, 0, 10); err != nil {
		t.Fatal(err)
	}
}
