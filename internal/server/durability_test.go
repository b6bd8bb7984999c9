package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/relation"
	"repro/internal/relation/durable"
)

// The disk-backed serving path (DESIGN.md §15): a System built over a
// recovered durable store reports the store's counters in healthz's
// "durability" block, and — when recovery quarantined corrupt segments —
// flips the health status to "degraded" and stamps every tree response with
// X-Degraded: storage while still serving the surviving rows.

const durSegRows = 16

// seedDurableDir creates a 4-segment store (64 rows, no tail) in a temp dir
// and closes it cleanly.
func seedDurableDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	schema := relation.MustSchema(
		relation.Attribute{Name: "neighborhood", Type: relation.Categorical},
		relation.Attribute{Name: "price", Type: relation.Numeric},
	)
	st, err := durable.Create(dir, schema, durable.Options{SegmentRows: durSegRows})
	if err != nil {
		t.Fatal(err)
	}
	hoods := []string{"Seattle, WA", "Bellevue, WA", "Redmond, WA", "Kirkland, WA"}
	for i := 0; i < 4*durSegRows; i++ {
		err := st.Append(relation.Tuple{
			relation.StringValue(hoods[i%len(hoods)]),
			relation.NumberValue(200000 + float64(i)*1000),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// durableServer reopens the store in dir and serves a System backed by it.
func durableServer(t *testing.T, dir string) (*httptest.Server, *durable.Store) {
	t.Helper()
	st, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rel, err := st.Relation("ListProperty")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := repro.NewSystem(rel, repro.Config{
		WorkloadSQL: []string{
			"SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')",
			"SELECT * FROM ListProperty WHERE price BETWEEN 200000 AND 240000",
		},
		Intervals:        map[string]float64{"price": 10000},
		Durable:          st,
		TreeCacheEntries: 16,
		TreeCacheBytes:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{System: sys, MaxDepth: 4, MaxChildren: 50})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs, st
}

// healthBody is the subset of /healthz the durability tests read.
type healthBody struct {
	Status     string `json:"status"`
	Rows       int    `json:"rows"`
	Durability *struct {
		Degraded        bool `json:"degraded"`
		Segments        int  `json:"segments"`
		SealedRows      int  `json:"sealedRows"`
		QuarantinedRows int  `json:"quarantinedRows"`
		Quarantined     []struct {
			File   string `json:"file"`
			Lo, Hi int
			Reason string `json:"reason"`
		} `json:"quarantined"`
	} `json:"durability"`
}

func getHealth(t *testing.T, url string) healthBody {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body healthBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

func TestHealthzDurabilityClean(t *testing.T) {
	hs, _ := durableServer(t, seedDurableDir(t))
	body := getHealth(t, hs.URL)
	if body.Status != "ok" || body.Rows != 4*durSegRows {
		t.Fatalf("status=%q rows=%d, want ok/%d", body.Status, body.Rows, 4*durSegRows)
	}
	d := body.Durability
	if d == nil {
		t.Fatal("healthz has no durability block for a disk-backed system")
	}
	if d.Degraded || d.Segments != 4 || d.SealedRows != 4*durSegRows {
		t.Fatalf("durability = %+v, want clean 4-segment store", d)
	}

	resp, _ := postJSON(t, hs.URL+"/v1/query", map[string]any{
		"sql": "SELECT * FROM ListProperty WHERE price BETWEEN 200000 AND 300000"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	for _, v := range resp.Header.Values("X-Degraded") {
		if v == "storage" {
			t.Fatal("clean store stamped X-Degraded: storage")
		}
	}
}

// TestHealthzDurabilityDegraded corrupts one segment's column page, reopens,
// and checks that the server keeps serving the surviving rows while
// reporting the quarantine everywhere it must.
func TestHealthzDurabilityDegraded(t *testing.T) {
	dir := seedDurableDir(t)
	// Flip the final byte (a column-page checksum) of the second segment.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil || len(segs) != 4 {
		t.Fatalf("segment files = %v (err %v), want 4", segs, err)
	}
	raw, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x41
	if err := os.WriteFile(segs[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	hs, st := durableServer(t, dir)
	if !st.Degraded() {
		t.Fatal("store not degraded after materializing a corrupt segment")
	}

	body := getHealth(t, hs.URL)
	if body.Status != "degraded" {
		t.Fatalf("healthz status = %q, want degraded", body.Status)
	}
	if want := 3 * durSegRows; body.Rows != want {
		t.Fatalf("rows = %d, want the %d survivors", body.Rows, want)
	}
	d := body.Durability
	if d == nil || !d.Degraded || d.QuarantinedRows != durSegRows || len(d.Quarantined) != 1 {
		t.Fatalf("durability = %+v, want one quarantined segment of %d rows", d, durSegRows)
	}
	if !strings.Contains(d.Quarantined[0].Reason, "corrupt") &&
		!strings.Contains(d.Quarantined[0].Reason, "checksum") {
		t.Errorf("quarantine reason %q does not name the corruption", d.Quarantined[0].Reason)
	}

	// The miss, the first hit (which memoizes the body) and a replayed hit
	// each carry the storage marker: it is a per-request header, not part of
	// the memoized bytes.
	for _, wantCache := range []string{"miss", "hit", "hit"} {
		resp, raw2 := postJSON(t, hs.URL+"/v1/query", map[string]any{
			"sql": "SELECT * FROM ListProperty WHERE price BETWEEN 0 AND 10000000"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d: %s", resp.StatusCode, raw2)
		}
		if got := resp.Header.Get("X-Cache"); got != wantCache {
			t.Fatalf("X-Cache = %q, want %q", got, wantCache)
		}
		storage := false
		for _, v := range resp.Header.Values("X-Degraded") {
			if v == "storage" {
				storage = true
			}
		}
		if !storage {
			t.Fatalf("degraded store %s lacks X-Degraded: storage (got %v)", wantCache, resp.Header.Values("X-Degraded"))
		}
		var qr struct {
			ResultCount int `json:"resultCount"`
		}
		if err := json.Unmarshal(raw2, &qr); err != nil {
			t.Fatal(err)
		}
		if want := 3 * durSegRows; qr.ResultCount != want {
			t.Fatalf("resultCount = %d, want the %d surviving rows", qr.ResultCount, want)
		}
	}
}
