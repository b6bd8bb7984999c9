package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
)

func warmTestServer(t *testing.T, warmTopK int) (*Server, *httptest.Server) {
	t.Helper()
	rel := repro.DemoDataset(1500, 1)
	sys, err := repro.NewSystem(rel, repro.Config{
		WorkloadSQL:      repro.DemoWorkloadSQL(1000, 2),
		Intervals:        repro.DemoIntervals(),
		TreeCacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{System: sys, Learn: true, WarmTopK: warmTopK, MaxConcurrent: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.BeginShutdown()
		hs.Close()
	})
	return srv, hs
}

func TestNewWarmRequiresLearn(t *testing.T) {
	rel := repro.DemoDataset(200, 1)
	sys, err := repro.NewSystem(rel, repro.Config{
		WorkloadSQL: repro.DemoWorkloadSQL(100, 2),
		Intervals:   repro.DemoIntervals(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{System: sys, WarmTopK: 4}); err == nil {
		t.Fatal("WarmTopK without Learn should error")
	}
}

// TestHealthzRepairAndWarmerShape drives a learn-churn sequence through the
// HTTP path and pins the /healthz JSON contract for stale misses and warming:
// the cache block's counters, including stale, and the warmer block. The
// repair block and the cache's repaired counter went with incremental repair,
// the sharding block with shard-parallel categorization, and the storage
// block with in-memory segments; all must stay gone.
func TestHealthzRepairAndWarmerShape(t *testing.T) {
	srv, hs := warmTestServer(t, 4)

	// Serve → learn (the serve itself learns) → serve again: the second serve
	// of the same signature finds the first generation's entry stale.
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, hs.URL+"/v1/query", map[string]any{"sql": testSQL})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if _, ok := body["repair"]; ok {
		t.Error("healthz still has a repair block")
	}
	if _, ok := body["sharding"]; ok {
		t.Error("healthz still has a sharding block")
	}
	if _, ok := body["storage"]; ok {
		t.Error("healthz still has a storage block")
	}
	var cache map[string]json.RawMessage
	if err := json.Unmarshal(body["cache"], &cache); err != nil || cache == nil {
		t.Fatalf("healthz has no cache block (%v)", err)
	}
	for _, name := range []string{"hits", "misses", "shared", "evictions", "stale", "panics", "entries", "bytes"} {
		if _, ok := cache[name]; !ok {
			t.Errorf("cache block missing %q", name)
		}
	}
	if _, ok := cache["repaired"]; ok {
		t.Error("cache block still has a repaired counter")
	}
	var warmer *repro.WarmerStats
	if err := json.Unmarshal(body["warmer"], &warmer); err != nil || warmer == nil {
		t.Fatalf("healthz has no warmer block (%v)", err)
	}
	if warmer.TopK != 4 {
		t.Errorf("warmer topK = %d, want 4", warmer.TopK)
	}
	// The second serve hit a stale first-generation entry; it must have been
	// counted.
	var stale uint64
	if err := json.Unmarshal(cache["stale"], &stale); err != nil || stale == 0 {
		t.Errorf("no stale-offer counted after learn churn (stale=%d, %v)", stale, err)
	}

	// BeginShutdown stops the warmer; the block disappears from /healthz.
	srv.BeginShutdown()
	resp2, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var after struct {
		Warmer *repro.WarmerStats `json:"warmer"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.Warmer != nil {
		t.Error("warmer block still reported after shutdown began")
	}
}

// TestWarmerWarmsThroughServer checks the end-to-end loop: HTTP serves learn,
// learning wakes the warmer, and the warmer lands the hot signature in the
// cache so a later request is a hit even though the generation moved.
func TestWarmerWarmsThroughServer(t *testing.T) {
	srv, hs := warmTestServer(t, 4)

	// Serve the signature a few times so it dominates the warmer's top-K,
	// each serve learning and bumping the generation.
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, hs.URL+"/v1/query", map[string]any{"sql": testSQL})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}

	q, err := repro.ParseQuery(testSQL)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// The warmer must catch the current generation up on its own: no
		// /v1/query requests from here on, only cache probes.
		if _, ok := srv.adaptive.System().Peek(q, repro.CostBased, srv.cfg.Options); ok {
			break
		}
		if time.Now().After(deadline) {
			ws, ok := srv.adaptive.WarmerStats()
			t.Fatalf("warmer never caught up (stats ok=%v %+v)", ok, ws)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ := postJSON(t, hs.URL+"/v1/query", map[string]any{"sql": testSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final query: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache = %q after warming, want hit", got)
	}
}
