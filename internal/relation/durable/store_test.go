package durable

import (
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
	mem := memRelation(t, n, segRows)
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

// TestTrackedIngestMatchesUntracked pins that the relation-hook-driven
// spill (Create with Track) and the buffered-tail spill (untracked) produce
// byte-identical segment files and manifests — the on-disk format is a pure
// function of the row sequence.
func TestTrackedIngestMatchesUntracked(t *testing.T) {
	const n, segRows = 530, 32
	dirA, dirB := t.TempDir(), t.TempDir()

	stA, err := Create(dirA, testSchema(), Options{SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(stA, 0, n); err != nil {
		t.Fatal(err)
	}
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	schema := testSchema()
	rel := relation.New("ListProperty", schema)
	stB, err := Create(dirB, schema, Options{SegmentRows: segRows, Track: rel})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(stB, 0, n); err != nil {
		t.Fatal(err)
	}
	if rel.Len() != n {
		t.Fatalf("tracked relation has %d rows, want %d", rel.Len(), n)
	}
	if ss := rel.StorageStats(); ss.SealedRows != (n/segRows)*segRows {
		t.Fatalf("tracked relation sealed %d rows, want %d", ss.SealedRows, (n/segRows)*segRows)
	}
	if err := stB.Close(); err != nil {
		t.Fatal(err)
	}

	entsA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entsA {
		a, err := os.ReadFile(filepath.Join(dirA, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, e.Name()))
		if err != nil {
			t.Fatalf("tracked ingest did not produce %s: %v", e.Name(), err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between tracked and untracked ingest", e.Name())
		}
	}

	st2, err := Open(dirB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	assertStoreMatches(t, st2, memRelation(t, n, segRows), false)
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
			assertStoreMatches(t, st2, memRelation(t, n, segRows), false)
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
	assertStoreMatches(t, st3, memRelation(t, 100, segRows), true)
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
	assertStoreMatches(t, st2, memRelation(t, 49, segRows), false)
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
