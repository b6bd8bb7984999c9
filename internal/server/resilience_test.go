package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/resilience/faultinject"
)

// Tests for the resilient serving path (DESIGN.md §10): degradation under an
// exhausted budget, the 504/499 split, admission shedding, panic isolation,
// and drain mode.

// healthResilience decodes /healthz's resilience block.
type healthResilience struct {
	Serving struct {
		Panics           uint64 `json:"panics"`
		DegradedAttrCost uint64 `json:"degradedAttrCost"`
		DegradedFlat     uint64 `json:"degradedFlat"`
	} `json:"serving"`
	Admission struct {
		InFlight   int    `json:"inFlight"`
		QueueDepth int    `json:"queueDepth"`
		Admitted   uint64 `json:"admitted"`
		Shed       uint64 `json:"shed"`
	} `json:"admission"`
	Draining bool `json:"draining"`
}

func getResilience(t *testing.T, url string) healthResilience {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Resilience healthResilience `json:"resilience"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Resilience
}

// TestDegradedNeverCached: with an unmeetable soft budget every request
// degrades to the flat tree, carries the degraded markers, and is never
// memoized — a later request misses again instead of being served the
// overload artifact as a full-fidelity tree.
func TestDegradedNeverCached(t *testing.T) {
	hs := newServeServer(t, Config{
		System:     newServeSystem(t, true),
		SoftBudget: time.Nanosecond,
		Degrade:    true,
	})
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: spellings[0]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Degraded"); got != "flat" {
			t.Errorf("request %d: X-Degraded = %q; want flat", i, got)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("request %d: X-Cache = %q; want miss (degraded trees are not cached)", i, got)
		}
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Degraded != "flat" {
			t.Errorf("request %d: body degraded = %q; want flat", i, qr.Degraded)
		}
		// NodeCount excludes the root, and the flat tree is only a root.
		if qr.Categories != 0 || len(qr.Levels) != 0 {
			t.Errorf("request %d: flat tree should be a bare root: categories=%d levels=%v", i, qr.Categories, qr.Levels)
		}
		if qr.ResultCount == 0 {
			t.Errorf("request %d: flat tree lost the result set", i)
		}
	}
	if entries, _, _ := cacheStats(t, hs.URL); entries != 0 {
		t.Errorf("degraded serves left %d cache entries; want 0", entries)
	}
	if res := getResilience(t, hs.URL); res.Serving.DegradedFlat != 3 {
		t.Errorf("degradedFlat = %d; want 3", res.Serving.DegradedFlat)
	}
}

// TestDegradationIsInvisibleWhenFast: a comfortable budget serves the full
// tree with no degradation markers — the policy is pay-as-you-go.
func TestDegradationIsInvisibleWhenFast(t *testing.T) {
	hs := newServeServer(t, Config{
		System:     newServeSystem(t, true),
		SoftBudget: time.Minute,
		Degrade:    true,
	})
	resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: spellings[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Degraded"); got != "" {
		t.Errorf("X-Degraded = %q; want absent", got)
	}
	if bytes.Contains(body, []byte(`"degraded"`)) {
		t.Errorf("body carries a degraded field on a full-fidelity serve: %s", body)
	}
	// And it cached normally.
	resp, _ = postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: spellings[0]})
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache = %q; want hit", got)
	}
}

// TestServerDeadline504 pins the server-imposed-deadline status: 504, not
// the 499 reserved for clients hanging up.
func TestServerDeadline504(t *testing.T) {
	for _, cached := range []bool{false, true} {
		hs := newServeServer(t, Config{
			System:   newServeSystem(t, cached),
			Deadline: time.Nanosecond,
		})
		resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: spellings[0]})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("cached=%v: status = %d (%s); want 504", cached, resp.StatusCode, body)
		}
	}
}

// TestRequestTimeoutTightens: a request's timeoutMs imposes a deadline on a
// server that has none configured.
func TestRequestTimeoutTightens(t *testing.T) {
	hs := newServeServer(t, Config{System: newServeSystem(t, true)})
	// timeoutMs can't express sub-millisecond budgets, so stall the build to
	// guarantee the deadline fires first.
	inj := faultinject.New(1)
	inj.Set(faultinject.SiteServeBuild, faultinject.Rule{Stall: true})
	defer faultinject.Activate(inj)()
	resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: spellings[0], TimeoutMs: 20})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d (%s); want 504", resp.StatusCode, body)
	}
}

// TestOversizedTimeoutSetsNoDeadline: a timeoutMs whose nanoseconds overflow
// a time.Duration sets no deadline. Multiplied naively, 76480200929599801 ms
// wraps to 64 ns, and a client asking for a long timeout would get a 504 on
// every miss; on a server with no Deadline both routes must serve it.
func TestOversizedTimeoutSetsNoDeadline(t *testing.T) {
	hs := newServeServer(t, Config{System: newServeSystem(t, false)})
	const ms = 76480200929599801
	for _, tc := range []struct {
		path string
		req  any
	}{
		{"/v1/query", queryRequest{SQL: spellings[0], TimeoutMs: ms}},
		{"/v1/refine", refineRequest{SQL: spellings[0], Path: []int{0}, TimeoutMs: ms}},
	} {
		resp, body := postJSON(t, hs.URL+tc.path, tc.req)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d (%s); want 200", tc.path, resp.StatusCode, body)
		}
	}
}

func TestRequestTimeout(t *testing.T) {
	for _, tc := range []struct {
		ms   int
		want time.Duration
	}{
		{0, 0},
		{-1, 0},
		{1, time.Millisecond},
		{9223372036854, 9223372036854 * time.Millisecond}, // largest that fits
		{18446744073710, 0},    // would wrap to 448µs
		{76480200929599801, 0}, // would wrap to 64ns
	} {
		if got := requestTimeout(tc.ms); got != tc.want {
			t.Errorf("requestTimeout(%d) = %v; want %v", tc.ms, got, tc.want)
		}
	}
}

// TestAdmissionShed: with one slot, no queue, and a stalled build, a second
// request is shed immediately with 503 + Retry-After while the first is
// still computing; canceling the first frees the slot.
func TestAdmissionShed(t *testing.T) {
	sys := newServeSystem(t, true)
	srv, err := New(Config{System: sys, MaxConcurrent: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	inj := faultinject.New(1)
	inj.Set(faultinject.SiteServeBuild, faultinject.Rule{Stall: true})
	defer faultinject.Activate(inj)()

	// First request occupies the only slot, stalled in its build.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(queryRequest{SQL: spellings[0]})
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(raw)).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		first <- rec.Code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.limiter.Stats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Second request: distinct query (no singleflight join), no slot, no
	// queue → shed.
	resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: distinctSQL[1]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d (%s); want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	cancel()
	if code := <-first; code != StatusClientClosedRequest {
		t.Errorf("stalled request finished with %d; want %d", code, StatusClientClosedRequest)
	}
	res := getResilience(t, hs.URL)
	if res.Admission.Shed != 1 {
		t.Errorf("shed = %d; want 1", res.Admission.Shed)
	}
	if res.Admission.InFlight != 0 {
		t.Errorf("inFlight = %d after drain; want 0", res.Admission.InFlight)
	}
}

// TestCacheHitBypassesAdmission: a saturated limiter must not block hits —
// they cost no computation.
func TestCacheHitBypassesAdmission(t *testing.T) {
	srv, err := New(Config{System: newServeSystem(t, true), MaxConcurrent: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	// Warm the cache, then saturate the limiter out-of-band.
	resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: spellings[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, body)
	}
	release, err := srv.limiter.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, body = postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: spellings[1]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit under saturation: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache = %q; want hit", got)
	}
}

// TestPanicIsolated: an injected categorizer panic becomes a 503, the
// process survives, the cache is not poisoned, and the panic counter moves.
func TestPanicIsolated(t *testing.T) {
	hs := newServeServer(t, Config{System: newServeSystem(t, true)})

	inj := faultinject.New(1)
	inj.Set(faultinject.SiteCategorizeStart, faultinject.Rule{Panic: true})
	restore := faultinject.Activate(inj)
	resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: spellings[0]})
	restore()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("panicked request: status %d (%s); want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("panicked request missing Retry-After")
	}
	if res := getResilience(t, hs.URL); res.Serving.Panics == 0 {
		t.Error("panic counter did not move")
	}
	// The key is not poisoned: the same query now serves normally.
	resp, body = postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: spellings[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after restore: status %d: %s", resp.StatusCode, body)
	}
}

// TestDrainMode: BeginShutdown sheds new categorization work with 503 but
// keeps health reporting alive.
func TestDrainMode(t *testing.T) {
	srv, err := New(Config{System: newServeSystem(t, true)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	srv.BeginShutdown()
	for _, path := range []string{"/v1/query", "/v1/refine"} {
		resp, body := postJSON(t, hs.URL+path, queryRequest{SQL: spellings[0]})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while draining: status %d (%s); want 503", path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s while draining: missing Retry-After", path)
		}
	}
	res := getResilience(t, hs.URL)
	if !res.Draining {
		t.Error("healthz does not report draining")
	}
}

// TestAttributesReflectLearning: /v1/attributes must serve from the current
// snapshot, so usage fractions move as the server learns.
func TestAttributesReflectLearning(t *testing.T) {
	hs := newServeServer(t, Config{System: newServeSystem(t, true), Learn: true})

	usage := func() map[string]float64 {
		resp, err := http.Get(hs.URL + "/v1/attributes")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var attrs []attributeInfo
		if err := json.NewDecoder(resp.Body).Decode(&attrs); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64, len(attrs))
		for _, a := range attrs {
			out[a.Name] = a.UsageFraction
		}
		return out
	}

	before := usage()
	// Learn a run of bedroomcount-only queries; its usage fraction must rise.
	for i := 0; i < 20; i++ {
		resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{
			SQL: "SELECT * FROM ListProperty WHERE bedroomcount >= 3",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("learn %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	after := usage()
	if after["bedroomcount"] <= before["bedroomcount"] {
		t.Errorf("bedroomcount usage fraction did not rise with learning: before=%v after=%v",
			before["bedroomcount"], after["bedroomcount"])
	}
}
