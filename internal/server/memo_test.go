package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/resilience/faultinject"
)

// Tests for the render memo (DESIGN.md §8): the first hit on a tree-cache
// entry stores its /v1/query body on the entry, and later hits with the same
// bounds replay those bytes. The replayed bytes must be exactly what a
// render would produce, and must never outlive the entry they belong to.

// memoPost posts a /v1/query and fails the test on a non-200 status.
func memoPost(t *testing.T, url string, req queryRequest) (*http.Response, []byte) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%+v: status %d: %s", req, resp.StatusCode, body)
	}
	return resp, body
}

// TestMemoHitMatchesRender: for every technique, the building miss, the
// first hit (which fills the memo) and a replayed hit all equal an uncached
// server's body byte for byte, trailing newline included; the fill charges
// the body to the cache once; a hit with other bounds renders its own body
// and leaves the memo alone.
func TestMemoHitMatchesRender(t *testing.T) {
	sys := newServeSystem(t, true)
	cached := newServeServer(t, Config{System: sys, MaxDepth: 3, MaxChildren: 8})
	uncached := newServeServer(t, Config{System: newServeSystem(t, false), MaxDepth: 3, MaxChildren: 8})

	for _, tech := range []string{"cost-based", "attr-cost", "no-cost"} {
		req := queryRequest{SQL: spellings[0], Technique: tech}
		_, want := memoPost(t, uncached.URL, req)
		if !bytes.HasSuffix(want, []byte("}\n")) {
			t.Fatalf("%s: reference body does not end in a newline: %q", tech, want[max(0, len(want)-8):])
		}
		for i, wantCache := range []string{"miss", "hit", "hit"} {
			before := sys.CacheStats().Bytes
			resp, got := memoPost(t, cached.URL, req)
			if c := resp.Header.Get("X-Cache"); c != wantCache {
				t.Fatalf("%s request %d: X-Cache = %q; want %q", tech, i, c, wantCache)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s request %d (%s) differs from the uncached body:\ngot:  %s\nwant: %s", tech, i, wantCache, got, want)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
				t.Errorf("%s request %d: Content-Length = %q; body is %d bytes", tech, i, cl, len(got))
			}
			grown := sys.CacheStats().Bytes - before
			switch {
			case i == 1 && grown != int64(len(got)):
				t.Errorf("%s: the first hit grew the cache by %d bytes; want the %d-byte body", tech, grown, len(got))
			case i == 2 && grown != 0:
				t.Errorf("%s: a replayed hit grew the cache by %d bytes", tech, grown)
			}
		}

		// Other bounds: a fresh, correct render that leaves the memo as it was.
		shallow := req
		shallow.MaxDepth = 1
		_, wantShallow := memoPost(t, uncached.URL, shallow)
		before := sys.CacheStats().Bytes
		resp, got := memoPost(t, cached.URL, shallow)
		if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(got, wantShallow) {
			t.Fatalf("%s maxDepth 1: X-Cache %q, body\n%s\nwant\n%s", tech, resp.Header.Get("X-Cache"), got, wantShallow)
		}
		if bytes.Equal(got, want) {
			t.Fatalf("%s: maxDepth 1 rendered the same body as maxDepth 3; the case checks nothing", tech)
		}
		if grown := sys.CacheStats().Bytes - before; grown != 0 {
			t.Errorf("%s: a hit with other bounds grew the cache by %d bytes", tech, grown)
		}
		if _, got := memoPost(t, cached.URL, req); !bytes.Equal(got, want) {
			t.Fatalf("%s: the memoized body changed after a hit with other bounds", tech)
		}
	}
}

// TestMemoConcurrentFirstHit: N requests take the first hit on one entry at
// once. All receive the rendered body, and the memo is filled, and charged,
// exactly once. The requests call the handler directly, and the tree is
// rendered unbounded, so their renders overlap. Run under -race -count=10
// in CI.
func TestMemoConcurrentFirstHit(t *testing.T) {
	sys := newServeSystem(t, true)
	srv, err := New(Config{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(queryRequest{SQL: spellings[0]})
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(raw)))
		return rec
	}
	want := post().Body.Bytes() // the miss stores the tree, not a body
	before := sys.CacheStats().Bytes

	const n = 16
	recs := make([]*httptest.ResponseRecorder, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			recs[i] = post()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, rec := range recs {
		if c := rec.Header().Get("X-Cache"); c != "hit" || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("request %d: status %d, X-Cache %q, body\n%s\nwant the miss's body\n%s", i, rec.Code, c, rec.Body.Bytes(), want)
		}
	}
	if grown := sys.CacheStats().Bytes - before; grown != int64(len(want)) {
		t.Fatalf("%d concurrent first hits grew the cache by %d bytes; want one %d-byte body", n, grown, len(want))
	}
}

// TestMemoNeverHoldsDegraded: a degraded response is never cached, so it
// fills no memo, and once the overload clears the first hit stores, and
// later hits replay, the full-fidelity body.
func TestMemoNeverHoldsDegraded(t *testing.T) {
	sys := newServeSystem(t, true)
	hs := newServeServer(t, Config{System: sys, MaxDepth: 3, MaxChildren: 8, SoftBudget: 20 * time.Millisecond, Degrade: true})
	uncached := newServeServer(t, Config{System: newServeSystem(t, false), MaxDepth: 3, MaxChildren: 8})
	req := queryRequest{SQL: spellings[0]}

	inj := faultinject.New(1)
	inj.Set(faultinject.SiteCategorizeLevel, faultinject.Rule{Latency: 200 * time.Millisecond})
	restore := faultinject.Activate(inj)
	for i := 0; i < 2; i++ {
		resp, body := memoPost(t, hs.URL, req)
		if resp.Header.Get("X-Degraded") == "" || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("overloaded request %d: X-Degraded %q, X-Cache %q; want a degraded miss",
				i, resp.Header.Get("X-Degraded"), resp.Header.Get("X-Cache"))
		}
		if !bytes.Contains(body, []byte(`"degraded"`)) {
			t.Fatalf("overloaded request %d: body lacks its degraded field: %s", i, body)
		}
	}
	restore()
	if s := sys.CacheStats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("degraded serves left cache state behind: %+v", s)
	}

	_, want := memoPost(t, uncached.URL, req)
	for i, wantCache := range []string{"miss", "hit", "hit"} {
		resp, got := memoPost(t, hs.URL, req)
		if resp.Header.Get("X-Cache") != wantCache || resp.Header.Get("X-Degraded") != "" || !bytes.Equal(got, want) {
			t.Fatalf("recovered request %d: X-Cache %q, X-Degraded %q, body\n%s\nwant the full-fidelity body\n%s",
				i, resp.Header.Get("X-Cache"), resp.Header.Get("X-Degraded"), got, want)
		}
	}
}

// TestMemoNotCarriedAcrossGenerations: a learning server memoizes a hit
// under one statistics generation; after learning publishes another, the
// same query's entry in the new generation renders from its own tree and
// never replays the old bytes, though its miss was offered the old entry as
// repair material.
func TestMemoNotCarriedAcrossGenerations(t *testing.T) {
	srv, err := New(Config{System: newServeSystem(t, true), Learn: true, MaxDepth: 3, MaxChildren: 8})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	q, err := repro.ParseQuery(spellings[0])
	if err != nil {
		t.Fatal(err)
	}
	req := queryRequest{SQL: spellings[0]}
	ctx := context.Background()

	// hitAt stores q's tree under the current generation, the way the
	// pre-warmer does, then takes the first HTTP hit on it. The request
	// learns q after serving, which publishes the next generation.
	hitAt := func() (*repro.System, []byte) {
		t.Helper()
		sys := srv.adaptive.System()
		if _, _, err := sys.ServeParsed(ctx, q, repro.CostBased, srv.cfg.Options); err != nil {
			t.Fatal(err)
		}
		resp, body := memoPost(t, hs.URL, req)
		if resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("generation %d: X-Cache = %q; want hit", sys.Generation(), resp.Header.Get("X-Cache"))
		}
		if srv.adaptive.System().Generation() == sys.Generation() {
			t.Fatal("the request did not learn")
		}
		return sys, body
	}

	old, oldBody := hitAt()
	if got, ok := old.PeekOutcome(q, repro.CostBased, srv.cfg.Options).Memo.Load(3, 8); !ok || !bytes.Equal(got, oldBody) {
		t.Fatal("the first hit did not memoize its body on the entry")
	}
	// Move the statistics this tree reads, so the new generation's body
	// differs from the memoized one.
	if err := srv.adaptive.LearnBatch(repro.DemoWorkloadSQL(400, 9)); err != nil {
		t.Fatal(err)
	}
	cur, body := hitAt()
	out := cur.PeekOutcome(q, repro.CostBased, srv.cfg.Options)
	want, err := renderQuery(out, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("generation %d hit is not its own tree's rendering:\ngot:  %s\nwant: %s", cur.Generation(), body, want)
	}
	if bytes.Equal(body, oldBody) {
		t.Fatal("learning did not change the body; the case checks nothing")
	}
}

// TestMemoBytesBounded: TreeCacheBytes bounds trees, their traces and
// memoized bodies together. Two trees fit the bound; memoizing a body on
// the newer one pushes the total past it, which evicts the older entry,
// and evicting an entry releases its body with its tree.
func TestMemoBytesBounded(t *testing.T) {
	a := queryRequest{SQL: spellings[0]}
	b := queryRequest{SQL: distinctSQL[0]}
	// Measure the two entries and b's body on a roomy cache.
	probe := newServeSystem(t, true)
	hs := newServeServer(t, Config{System: probe, MaxDepth: 3, MaxChildren: 8})
	memoPost(t, hs.URL, a)
	treeA := probe.CacheStats().Bytes
	memoPost(t, hs.URL, b)
	treeB := probe.CacheStats().Bytes - treeA
	_, bodyB := memoPost(t, hs.URL, b)
	if got := probe.CacheStats().Bytes; got != treeA+treeB+int64(len(bodyB)) {
		t.Fatalf("cache bytes %d after memoizing; want trees %d + %d and body %d", got, treeA, treeB, len(bodyB))
	}

	bound := treeA + treeB + int64(len(bodyB))/2
	sys, err := repro.NewSystem(repro.DemoDataset(4000, 1), repro.Config{
		WorkloadSQL:      repro.DemoWorkloadSQL(2000, 2),
		Intervals:        repro.DemoIntervals(),
		TreeCacheEntries: 128,
		TreeCacheBytes:   bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs = newServeServer(t, Config{System: sys, MaxDepth: 3, MaxChildren: 8})
	memoPost(t, hs.URL, a)
	memoPost(t, hs.URL, b)
	if s := sys.CacheStats(); s.Entries != 2 || s.Evictions != 0 {
		t.Fatalf("both trees should fit %d bytes: %+v", bound, s)
	}
	memoPost(t, hs.URL, b) // the first hit memoizes b's body
	s := sys.CacheStats()
	if s.Entries != 1 || s.Evictions != 1 || s.Bytes != treeB+int64(len(bodyB)) || s.Bytes > bound {
		t.Fatalf("after memoizing past the %d-byte bound: %+v; want a's entry evicted and %d bytes held", bound, s, treeB+int64(len(bodyB)))
	}
	// Rebuilding a pushes the total past the bound again; evicting b
	// releases its tree and its body together.
	if resp, _ := memoPost(t, hs.URL, a); resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("a's evicted entry still answered: X-Cache %q", resp.Header.Get("X-Cache"))
	}
	if s := sys.CacheStats(); s.Entries != 1 || s.Evictions != 2 || s.Bytes != treeA {
		t.Fatalf("after rebuilding a: %+v; want b's entry and body released, %d bytes held", s, treeA)
	}
}
