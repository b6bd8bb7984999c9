package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

var (
	tsOnce sync.Once
	tsSys  *repro.System
	tsErr  error
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	tsOnce.Do(func() {
		rel := repro.DemoDataset(4000, 1)
		tsSys, tsErr = repro.NewSystem(rel, repro.Config{
			WorkloadSQL: repro.DemoWorkloadSQL(2000, 2),
			Intervals:   repro.DemoIntervals(),
		})
	})
	if tsErr != nil {
		t.Fatalf("system: %v", tsErr)
	}
	srv, err := New(Config{System: tsSys, MaxDepth: 4, MaxChildren: 50})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

const testSQL = "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA','Bellevue, WA','Redmond, WA','Kirkland, WA') AND price BETWEEN 150000 AND 400000"

func TestNewRequiresSystem(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without System should error")
	}
}

func TestHealthz(t *testing.T) {
	hs := testServer(t)
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
		Rows   int    `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Rows != 4000 {
		t.Fatalf("body = %+v", body)
	}
}

// TestHealthzSelectStats drives one query through the serving path and checks
// that /healthz reports the selection counters (DESIGN.md §9).
func TestHealthzSelectStats(t *testing.T) {
	hs := testServer(t)
	resp, _ := postJSON(t, hs.URL+"/v1/query", map[string]any{"sql": testSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var body struct {
		Select *repro.SelectStats `json:"select"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Select == nil {
		t.Fatal("healthz has no select field")
	}
	if body.Select.Selects == 0 {
		t.Fatalf("select stats not counting: %+v", *body.Select)
	}
	if body.Select.ConjunctHits+body.Select.ConjunctMisses == 0 {
		t.Fatalf("conjunct cache untouched: %+v", *body.Select)
	}
}

func TestAttributes(t *testing.T) {
	hs := testServer(t)
	resp, err := http.Get(hs.URL + "/v1/attributes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var attrs []attributeInfo
	if err := json.NewDecoder(resp.Body).Decode(&attrs); err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 53 {
		t.Fatalf("attributes = %d; want 53", len(attrs))
	}
	byName := map[string]attributeInfo{}
	for _, a := range attrs {
		byName[a.Name] = a
	}
	if byName["neighborhood"].UsageFraction < 0.4 {
		t.Errorf("neighborhood usage = %v; want hot", byName["neighborhood"].UsageFraction)
	}
	if byName["price"].Type != "numeric" {
		t.Errorf("price type = %q", byName["price"].Type)
	}
}

func TestQueryEndpoint(t *testing.T) {
	hs := testServer(t)
	resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: testSQL, MaxDepth: 2, MaxChildren: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.ResultCount == 0 || qr.Categories == 0 || qr.EstCostAll <= 0 {
		t.Fatalf("response = %+v", qr)
	}
	if qr.Tree.Label != "ALL" || qr.Tree.Count != qr.ResultCount {
		t.Fatalf("root = %+v", qr.Tree)
	}
	if len(qr.Tree.Children) == 0 {
		t.Fatal("tree has no children")
	}
	if len(qr.Tree.Children) > 5 {
		t.Fatalf("maxChildren not honored: %d", len(qr.Tree.Children))
	}
	// Paths must address children positionally.
	if qr.Tree.Children[0].Path[0] != 0 {
		t.Fatalf("child path = %v", qr.Tree.Children[0].Path)
	}
	// Depth bound: grandchildren may exist (depth 2) but no deeper.
	for _, c := range qr.Tree.Children {
		for _, g := range c.Children {
			if len(g.Children) != 0 {
				t.Fatalf("depth bound violated at %v", g.Path)
			}
		}
	}
}

func TestQueryTechniqueAndErrors(t *testing.T) {
	hs := testServer(t)
	for _, tech := range []string{"cost-based", "attr-cost", "no-cost"} {
		resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: testSQL, Technique: tech})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("technique %s: status %d: %s", tech, resp.StatusCode, body)
		}
	}
	resp, _ := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: testSQL, Technique: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus technique: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: "DROP TABLE x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL: status %d", resp.StatusCode)
	}
	req, err := http.Post(hs.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	req.Body.Close()
	if req.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", req.StatusCode)
	}
}

func TestQueryMethodNotAllowed(t *testing.T) {
	hs := testServer(t)
	resp, err := http.Get(hs.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query status %d; want 405", resp.StatusCode)
	}
}

func TestRefineEndpoint(t *testing.T) {
	hs := testServer(t)
	// First fetch the tree so the path is meaningful.
	resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: testSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Tree.Children) == 0 {
		t.Skip("trivial tree")
	}
	child := qr.Tree.Children[0]

	resp, body = postJSON(t, hs.URL+"/v1/refine", refineRequest{SQL: testSQL, Path: child.Path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refine: %d %s", resp.StatusCode, body)
	}
	var rr refineResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.ResultCount != child.Count {
		t.Fatalf("refined count %d != category count %d (sql %s)", rr.ResultCount, child.Count, rr.SQL)
	}
	// The refined SQL must itself be servable.
	resp, body = postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: rr.SQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-query of refined SQL: %d %s", resp.StatusCode, body)
	}
}

func TestRefineBadPath(t *testing.T) {
	hs := testServer(t)
	resp, _ := postJSON(t, hs.URL+"/v1/refine", refineRequest{SQL: testSQL, Path: []int{9999}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad path: status %d", resp.StatusCode)
	}
}

func TestLearningServer(t *testing.T) {
	rel := repro.DemoDataset(2000, 3)
	sys, err := repro.NewSystem(rel, repro.Config{
		WorkloadSQL: repro.DemoWorkloadSQL(1000, 4),
		Intervals:   repro.DemoIntervals(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{System: sys, Learn: true})
	if err != nil {
		t.Fatalf("New(Learn): %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	before := healthField(t, hs.URL, "workloadQueries")
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: testSQL})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
	}
	after := healthField(t, hs.URL, "workloadQueries")
	if after != before+3 {
		t.Fatalf("workload %v -> %v; want +3 learned queries", before, after)
	}
	if got := healthField(t, hs.URL, "learned"); got != 3 {
		t.Fatalf("learned = %v; want 3", got)
	}
}

func healthField(t *testing.T, url, field string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	v, ok := body[field].(float64)
	if !ok {
		t.Fatalf("health field %q missing: %v", field, body)
	}
	return v
}

func TestLearningServerRequiresRawWorkload(t *testing.T) {
	rel := repro.DemoDataset(100, 1)
	base, err := repro.NewSystem(rel, repro.Config{WorkloadSQL: repro.DemoWorkloadSQL(50, 2)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.SaveStats(base.Stats(), &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := repro.LoadStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	statsOnly, err := repro.NewSystem(rel, repro.Config{Stats: loaded})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{System: statsOnly, Learn: true}); err == nil {
		t.Fatal("Learn over stats-only system should error")
	}
}

func TestSessionWorkflow(t *testing.T) {
	hs := testServer(t)
	// Create a session.
	resp, body := postJSON(t, hs.URL+"/v1/session", sessionCreateRequest{SQL: testSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var created sessionCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.ResultCount == 0 || len(created.RootLabels) == 0 {
		t.Fatalf("create response = %+v", created)
	}

	// Expand the first child, then show its tuples and click one.
	opURL := hs.URL + "/v1/session/" + created.ID + "/op"
	resp, body = postJSON(t, opURL, sessionOpRequest{Op: "expand", Path: []int{0}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expand: %d %s", resp.StatusCode, body)
	}
	var opResp sessionOpResponse
	if err := json.Unmarshal(body, &opResp); err != nil {
		t.Fatal(err)
	}
	if opResp.Summary.LabelsExamined <= len(created.RootLabels) {
		t.Fatalf("expanding a child must add labels: %+v", opResp.Summary)
	}

	resp, body = postJSON(t, opURL, sessionOpRequest{Op: "showtuples", Path: []int{0, 0}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("showtuples: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &opResp); err != nil {
		t.Fatal(err)
	}
	if len(opResp.Rows) == 0 {
		t.Fatal("showtuples returned no rows")
	}
	row := opResp.Rows[0]

	resp, body = postJSON(t, opURL, sessionOpRequest{Op: "click", Row: row})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("click: %d %s", resp.StatusCode, body)
	}

	// Status reports the full log and the click.
	getResp, err := http.Get(hs.URL + "/v1/session/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var status sessionStatusResponse
	if err := json.NewDecoder(getResp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Summary.RelevantFound != 1 || len(status.Relevant) != 1 || status.Relevant[0] != row {
		t.Fatalf("status = %+v", status)
	}
	// create's implicit root expand + 3 ops.
	if len(status.Log) != 4 {
		t.Fatalf("log has %d ops; want 4", len(status.Log))
	}
	if status.Log[0].Op != "expand" || status.Log[3].Op != "click" {
		t.Fatalf("log order wrong: %+v", status.Log)
	}
}

func TestSessionErrorsHTTP(t *testing.T) {
	hs := testServer(t)
	resp, _ := postJSON(t, hs.URL+"/v1/session/nope/op", sessionOpRequest{Op: "expand"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: %d", resp.StatusCode)
	}
	getResp, err := http.Get(hs.URL + "/v1/session/nope")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status: %d", getResp.StatusCode)
	}
	resp, body := postJSON(t, hs.URL+"/v1/session", sessionCreateRequest{SQL: testSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var created sessionCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	opURL := hs.URL + "/v1/session/" + created.ID + "/op"
	resp, _ = postJSON(t, opURL, sessionOpRequest{Op: "teleport"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, opURL, sessionOpRequest{Op: "expand", Path: []int{999}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad path: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, opURL, sessionOpRequest{Op: "click", Row: 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("click before showtuples: %d", resp.StatusCode)
	}
}
