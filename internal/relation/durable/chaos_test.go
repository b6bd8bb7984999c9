package durable

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/resilience/faultinject"
)

// The crash-recovery chaos suite: count a clean ingest's I/O operations at
// every durable fault site, then replay the ingest once per operation with
// a rule that kills it exactly there (alternating plain EIO and torn
// ShortWrite), recover, and hold the recovered store to the full
// equivalence contract against the in-memory prefix. `make crashchaos`
// runs this under -race with the CRASHCHAOS scale tests enabled.

var errBoom = errors.New("injected crash")

// chaosSites are the sites an *ingest* reaches; durable.recover only fires
// inside Open and gets its own double-crash coverage (recovery_test.go and
// the sampled sweep below).
var chaosSites = []string{
	faultinject.SiteDurableWrite,
	faultinject.SiteDurableFsync,
	faultinject.SiteDurableManifest,
}

// cleanHits ingests rows [0, total) cleanly and returns each site's hit
// count — the number of distinct crash points the chaos loop must cover.
func cleanHits(t *testing.T, total, segRows int, sync SyncPolicy) map[string]uint64 {
	t.Helper()
	inj := faultinject.New(1)
	restore := faultinject.Activate(inj)
	defer restore()
	st, err := Create(t.TempDir(), testSchema(), Options{SegmentRows: segRows, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(st, 0, total); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	hits := make(map[string]uint64)
	for _, site := range chaosSites {
		hits[site] = inj.Hits(site)
		if hits[site] == 0 {
			t.Fatalf("clean ingest never reached %s — the chaos loop would cover nothing", site)
		}
	}
	return hits
}

// crashAt replays the ingest with a rule killing the k-th operation at
// site, recovers, and asserts the contract. checkTrees gates the (heavier)
// category-tree equivalence.
func crashAt(t *testing.T, site string, k uint64, shortWrite bool, total, segRows int, sync SyncPolicy, syncEvery int, checkTrees bool) {
	t.Helper()
	dir := t.TempDir()
	inj := faultinject.New(int64(7 + k))
	inj.Set(site, faultinject.Rule{Err: errBoom, SkipFirst: k, ShortWrite: shortWrite})
	restore := faultinject.Activate(inj)

	acked := 0
	st, err := Create(dir, testSchema(), Options{SegmentRows: segRows, Sync: sync, SyncEvery: syncEvery})
	if err == nil {
		var ierr error
		acked, ierr = ingest(st, 0, total)
		if ierr == nil {
			// The k-th operation lands in Close; everything was acked.
			st.Close()
		}
		st.Abandon()
	}
	restore()

	st2, err := Open(dir, Options{})
	if err != nil {
		if IsNotExist(err) && acked == 0 {
			return // crashed before the store came into existence
		}
		t.Fatalf("site %s k=%d short=%v: recovery failed: %v", site, k, shortWrite, err)
	}
	defer st2.Close()
	stats := st2.Stats()
	got := stats.SealedRows + stats.TailRows
	if got > total {
		t.Fatalf("site %s k=%d: recovered %d rows, only %d ever appended", site, k, got, total)
	}
	floor := acked
	if sync == SyncBatch {
		floor = acked - syncEvery
	}
	if got < floor {
		t.Fatalf("site %s k=%d short=%v: recovered %d rows, %d acknowledged (floor %d)", site, k, shortWrite, got, acked, floor)
	}
	assertStoreMatches(t, st2, memRelation(t, got, segRows), checkTrees)
}

func TestCrashChaosKillAtEveryPoint(t *testing.T) {
	const total, segRows = 120, 16
	hits := cleanHits(t, total, segRows, SyncAlways)
	for _, site := range chaosSites {
		site := site
		t.Run(site, func(t *testing.T) {
			for k := uint64(0); k < hits[site]; k++ {
				// Alternate plain errors with torn writes; verify trees at
				// every 7th point and at the first and last.
				shortWrite := site == faultinject.SiteDurableWrite && k%2 == 1
				trees := k%7 == 0 || k == hits[site]-1
				crashAt(t, site, k, shortWrite, total, segRows, SyncAlways, 0, trees)
			}
		})
	}
}

// TestCrashChaosRecoverCrash kills recovery itself at every durable.recover
// point after a torn-ingest crash, then recovers cleanly — the double-crash
// sweep.
func TestCrashChaosRecoverCrash(t *testing.T) {
	const total, segRows = 90, 16
	for _, tearKind := range []bool{false, true} {
		dir := t.TempDir()
		inj := faultinject.New(3)
		inj.Set(faultinject.SiteDurableWrite, faultinject.Rule{Err: errBoom, ShortWrite: tearKind, SkipFirst: 60})
		restore := faultinject.Activate(inj)
		st, err := Create(dir, testSchema(), Options{SegmentRows: segRows, Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		acked, ierr := ingest(st, 0, total)
		if ierr == nil {
			t.Fatal("ingest survived the injected crash")
		}
		st.Abandon()
		restore()

		for k := uint64(0); k < 3; k++ {
			inj := faultinject.New(int64(17 + k))
			inj.Set(faultinject.SiteDurableRecover, faultinject.Rule{Err: errBoom, SkipFirst: k})
			restore := faultinject.Activate(inj)
			_, err := Open(dir, Options{})
			restore()
			if err != nil && !errors.Is(err, errBoom) {
				t.Fatalf("recover crash k=%d: unexpected error %v", k, err)
			}
		}
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("final recovery: %v", err)
		}
		stats := st2.Stats()
		got := stats.SealedRows + stats.TailRows
		if got < acked {
			t.Fatalf("recovered %d rows, %d acknowledged", got, acked)
		}
		assertStoreMatches(t, st2, memRelation(t, got, segRows), true)
		st2.Close()
	}
}

// TestCrashChaosTruncationSweep covers page-cache-loss shapes fault
// injection cannot: the WAL truncated at every byte offset. Every
// truncation must open (read-only, so the seeded directory survives the
// sweep) to an exact prefix of the ingested rows.
func TestCrashChaosTruncationSweep(t *testing.T) {
	const total, segRows = 70, 16
	dir := t.TempDir()
	seedStore(t, dir, total, segRows)
	wal := dirFile(t, dir, "wal-")
	orig, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	sealed := (total / segRows) * segRows
	prevRows := -1
	for cut := len(orig); cut >= 0; cut-- {
		if err := os.WriteFile(wal, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		stats := st.Stats()
		got := stats.SealedRows + stats.TailRows
		if got < sealed || got > total {
			t.Fatalf("cut=%d: %d rows outside [%d,%d]", cut, got, sealed, total)
		}
		if prevRows >= 0 && got > prevRows {
			t.Fatalf("cut=%d: shrinking the WAL grew the tail (%d -> %d rows)", cut, prevRows, got)
		}
		prevRows = got
		// Full equivalence on a sample; row-count monotonicity everywhere.
		if cut%25 == 0 {
			assertStoreMatches(t, st, memRelation(t, got, segRows), false)
		}
		st.Close()
	}
	if prevRows != sealed {
		t.Fatalf("empty WAL recovered %d rows, want the sealed %d", prevRows, sealed)
	}
}

// TestCrashChaosSegmentTruncationSweep truncates a sealed segment file at
// sampled offsets: every cut must quarantine that segment (size mismatch
// at Open) and serve the surviving rows.
func TestCrashChaosSegmentTruncationSweep(t *testing.T) {
	const total, segRows = 80, 16
	dir := t.TempDir()
	seedStore(t, dir, total, segRows)
	seg := segFileName(segRows, 2*segRows)
	orig, err := os.ReadFile(dirFile(t, dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	mem := memRelation(t, total, segRows)
	for cut := 0; cut < len(orig); cut += 97 {
		if err := os.WriteFile(dirFile(t, dir, seg), orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if !st.Degraded() {
			t.Fatalf("cut=%d: truncated segment not quarantined", cut)
		}
		rel, err := st.Relation("ListProperty")
		if err != nil {
			t.Fatal(err)
		}
		if want := total - segRows; rel.Len() != want {
			t.Fatalf("cut=%d: %d surviving rows, want %d", cut, rel.Len(), want)
		}
		for i := 0; i < rel.Len(); i++ {
			j := i
			if i >= segRows {
				j = i + segRows
			}
			if !sameTuple(rel.Row(i), mem.Row(j)) {
				t.Fatalf("cut=%d: surviving row %d != reference row %d", cut, i, j)
			}
		}
		st.Close()
	}
	if err := os.WriteFile(dirFile(t, dir, seg), orig, 0o644); err != nil {
		t.Fatal(err)
	}
}

// canonicalWAL builds one WAL file's bytes (plus its expected rows) for the
// fuzz target, once.
var canonicalWAL struct {
	once  sync.Once
	bytes []byte
	rows  int
	gen   uint64
	after int
}

func canonicalWALBytes(tb testing.TB) ([]byte, int) {
	canonicalWAL.once.Do(func() {
		dir, err := os.MkdirTemp("", "durable-fuzz")
		if err != nil {
			tb.Fatal(err)
		}
		defer os.RemoveAll(dir)
		st, err := Create(dir, testSchema(), Options{SegmentRows: 1 << 20})
		if err != nil {
			tb.Fatal(err)
		}
		const n = 40
		if _, err := ingest(st, 0, n); err != nil {
			tb.Fatal(err)
		}
		if err := st.Close(); err != nil {
			tb.Fatal(err)
		}
		b, err := os.ReadFile(dirFile(tb, dir, "wal-"))
		if err != nil {
			tb.Fatal(err)
		}
		canonicalWAL.bytes, canonicalWAL.rows = b, n
		canonicalWAL.gen, canonicalWAL.after = 1, 0
	})
	return canonicalWAL.bytes, canonicalWAL.rows
}

// FuzzWALReplay mutates a real WAL (truncation + byte flip) and holds
// replay to its contract: never panic, never error, and every returned row
// is an exact prefix of the original sequence.
func FuzzWALReplay(f *testing.F) {
	orig, _ := canonicalWALBytes(f)
	f.Add(uint16(len(orig)), uint16(0), byte(0))
	f.Add(uint16(0), uint16(0), byte(1))
	f.Add(uint16(len(orig)/2), uint16(10), byte(0x80))
	f.Fuzz(func(t *testing.T, cut, flipOff uint16, flipMask byte) {
		orig, n := canonicalWALBytes(t)
		b := append([]byte(nil), orig...)
		if int(cut) < len(b) {
			b = b[:cut]
		}
		if len(b) > 0 {
			b[int(flipOff)%len(b)] ^= flipMask
		}
		path := t.TempDir() + "/wal-fuzz.log"
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		rows, good, _, err := replayWAL(path, testSchema(), canonicalWAL.gen, canonicalWAL.after)
		if err != nil {
			// Only a header/manifest mismatch errors, and that needs the
			// flip to forge a consistent header — fine either way, as long
			// as it is an error and not a panic.
			return
		}
		if len(rows) > n {
			t.Fatalf("replay invented rows: %d > %d", len(rows), n)
		}
		if good > int64(len(b)) {
			t.Fatalf("good offset %d past file end %d", good, len(b))
		}
		for i, r := range rows {
			if !sameTuple(r, testTuple(i)) {
				// A flip can only corrupt one record, and its checksum must
				// catch it; surviving rows must be the exact prefix.
				t.Fatalf("replayed row %d differs from the ingested sequence", i)
			}
		}
	})
}

// FuzzTupleCodec round-trips arbitrary cell contents through the WAL
// record codec.
func FuzzTupleCodec(f *testing.F) {
	f.Add("a", 1.5, 2.0, "b")
	f.Add("", 0.0, -0.0, "\x00\xff")
	f.Fuzz(func(t *testing.T, s1 string, n1, n2 float64, s2 string) {
		schema := testSchema()
		in := relation.Tuple{
			relation.StringValue(s1), relation.NumberValue(n1),
			relation.NumberValue(n2), relation.StringValue(s2),
		}
		out, err := decodeTuple(appendTuple(nil, schema, in), schema)
		if err != nil {
			t.Fatalf("roundtrip: %v", err)
		}
		if !sameTuple(in, out) {
			t.Fatalf("roundtrip changed the tuple: %v -> %v", in, out)
		}
	})
}

// --- CRASHCHAOS-gated scale tests (make crashchaos) ---

func requireCrashChaos(t *testing.T) {
	if os.Getenv("CRASHCHAOS") == "" {
		t.Skip("scale test: set CRASHCHAOS=1 (make crashchaos)")
	}
}

// TestCrashChaosScale100k is the acceptance-scale sweep: a 100k-row
// streamed ingest killed at crash points sampled across every durable
// site's full hit range, recovered and verified each time.
func TestCrashChaosScale100k(t *testing.T) {
	requireCrashChaos(t)
	const total, segRows, syncEvery = 100_000, relation.DefaultSegmentRows, 256
	hits := cleanHits(t, total, segRows, SyncBatch)
	const samples = 12
	for _, site := range chaosSites {
		site := site
		t.Run(site, func(t *testing.T) {
			n := hits[site]
			for i := uint64(0); i < samples; i++ {
				k := i * (n - 1) / (samples - 1)
				shortWrite := site == faultinject.SiteDurableWrite && i%2 == 1
				crashAt(t, site, k, shortWrite, total, segRows, SyncBatch, syncEvery, i == samples-1)
			}
		})
	}
}

// scaleTuple generates the 1.7M-row dataset with price correlated to the
// row index, so a price range selects a known contiguous row span.
func scaleTuple(i int) relation.Tuple {
	return relation.Tuple{
		relation.StringValue(testHoods[i%len(testHoods)]),
		relation.NumberValue(100000 + float64(i)),
		relation.NumberValue(float64(1 + i%6)),
		relation.StringValue(testTypes[i%3]),
	}
}

// TestScaleReopenSelect1M7 pins the read path at paper scale: a 1.7M-row
// spilled dataset, reopened read-only and materialized through Relation(),
// answers a selective Select with exactly the rows the range names.
func TestScaleReopenSelect1M7(t *testing.T) {
	requireCrashChaos(t)
	const total, segRows = 1_700_000, relation.DefaultSegmentRows
	dir := t.TempDir()
	st, err := Create(dir, testSchema(), Options{SegmentRows: segRows, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if err := st.Append(scaleTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rel, err := st2.Relation("ListProperty")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != total {
		t.Fatalf("materialized %d rows, want %d", rel.Len(), total)
	}
	// price = 100000 + i: this range selects exactly rows [500000, 520000).
	got := rel.Select(relation.NewRange("price", 600000, 620000))
	if len(got) != 20000 {
		t.Fatalf("selective select: %d rows, want 20000", len(got))
	}
	for k, i := range got {
		if i != 500000+k {
			t.Fatalf("selective select: row %d is %d, want %d", k, i, 500000+k)
		}
	}
	stats := st2.Stats()
	t.Logf("1.7M-row reopen: %d column pages, %s loaded", stats.ColumnLoads, fmtBytes(stats.LoadedBytes))
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
