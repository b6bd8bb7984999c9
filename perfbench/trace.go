package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// The traced run splits a request into layers from outside the program,
// with three passes over the same seeded stream:
//
//  1. an untraced HTTP pass, the baseline for the tracing overhead and the
//     serving process's allocations;
//  2. a traced HTTP pass over the same requests, with a wrapper timing
//     Server.Handler().ServeHTTP in the serving process;
//  3. an in-process pass over the same requests that makes handleQuery's
//     and serveTree's calls in their order, each inside its own span, and
//     reads the layers' stats snapshots before and after.
//
// Times are means per request over all requests, so the layer times add up
// to the traced round trip; trace.unattributed_us is what they leave over.

// maxTraced caps the requests per pass, which bounds the span file.
const maxTraced = 10000

// span is one timed call; start is relative to its pass's start, in its
// own process's clock.
type span struct {
	Pass   string `json:"pass"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Layer spans of the in-process pass.
const (
	spDecode = iota // server.self: JSON decode of the request
	spParse
	spSignature
	spLookup
	spServe // ServeParsedWith on a miss: Select plus the build or repair
	spLearn
	spEstimate
	spRender // server.self: toJSONTree and the JSON encode
	nSpans
)

var spanNames = [nSpans]string{
	"server.decode", "sqlparse.parse", "sqlparse.signature", "treecache.lookup",
	"repro.serve", "workload.learn", "category.estimate", "server.render",
}

// ipRequest is one in-process request: each layer span's start and end,
// zero when the layer did not run.
type ipRequest struct {
	idx        int
	start, end [nSpans]time.Duration
	body       []byte // rendered response, for the checks
}

// inproc is the in-process replay of the serving path.
type inproc struct {
	sys  *repro.System
	a    *repro.AdaptiveSystem // learning workloads
	opts repro.Options
}

func (p *inproc) current() *repro.System {
	if p.a != nil {
		return p.a.System()
	}
	return p.sys
}

// do replays handleQuery for one body. When rec is nil nothing is timed.
func (p *inproc) do(body []byte, t0 time.Time, rec *ipRequest) error {
	begin := func(i int) {
		if rec != nil {
			rec.start[i] = time.Since(t0)
		}
	}
	end := func(i int) {
		if rec != nil {
			rec.end[i] = time.Since(t0)
		}
	}
	begin(spDecode)
	var req queryRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return err
	}
	end(spDecode)
	begin(spParse)
	q, err := repro.ParseQuery(req.SQL)
	if err != nil {
		return err
	}
	end(spParse)
	begin(spSignature)
	_ = q.Signature()
	end(spSignature)
	begin(spLookup)
	tree, hit := p.current().Peek(q, repro.CostBased, p.opts)
	end(spLookup)
	var deg repro.Degradation
	if !hit {
		begin(spServe)
		out, err := p.current().ServeParsedWith(context.Background(), q, repro.CostBased, p.opts, repro.ServePolicy{})
		if err != nil {
			return err
		}
		end(spServe)
		tree, deg = out.Tree, out.Degraded
	}
	if p.a != nil {
		begin(spLearn)
		p.a.LearnQuery(q)
		end(spLearn)
	}
	begin(spEstimate)
	all := repro.EstimateCostAll(tree)
	one := repro.EstimateCostOne(tree, 0.5)
	end(spEstimate)
	begin(spRender)
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(queryResponse{
		ResultCount: tree.Root.Size(),
		Levels:      tree.LevelAttrs,
		EstCostAll:  all,
		EstCostOne:  one,
		Categories:  tree.NodeCount(),
		Degraded:    deg.String(),
		Tree:        toJSONTree(tree.Root, nil, boundOrDefault(req.MaxDepth, 6), boundOrDefault(req.MaxChildren, 200)),
	})
	if err != nil {
		return err
	}
	end(spRender)
	if rec != nil {
		rec.body = buf.Bytes()
	}
	return nil
}

// run replays the first n stream requests with the closed-loop client
// count, as concurrent handler calls.
func (p *inproc) run(bodies [][]byte, n int) ([]ipRequest, error) {
	recs := make([]ipRequest, n)
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				recs[i].idx = i
				if err := p.do(bodies[i%len(bodies)], t0, &recs[i]); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return recs, first
}

// runTraced is the per-layer run. Spans are kept in memory and written to
// tracePath when the run ends.
func runTraced(cfg runConfig, tracePath string) (*runResult, error) {
	wl := cfg.wl
	in, err := generateInputs(wl, cfg.seed, cfg.workDir)
	if err != nil {
		return nil, err
	}
	var counts []int
	if wl.check == checkCount {
		if counts, err = resultCounts(in, in.sqls); err != nil {
			return nil, err
		}
	}
	keep := map[int]bool{}
	if wl.check == checkSample {
		keep = sampleIndices(wl.sample, wl.sample*4, deriveSeed(cfg.seed, seedSample))
	}
	// pass sets up a serving process, loads it with spec and stops it.
	type passResult struct {
		load   *loadResult
		rep    serverReport
		primed [][]byte
		kept   sync.Map // sampled bodies (checkSample)
	}
	pass := func(k int, traced bool, spec loadSpec) (*passResult, error) {
		s, err := setUp(cfg, in, k, traced)
		if err != nil {
			return nil, err
		}
		defer s.c.kill()
		if err := s.c.mark(); err != nil {
			return nil, err
		}
		r := &passResult{primed: s.primed}
		spec.url, spec.bodies, spec.cycle, spec.reqID = s.c.url(), in.bodies, wl.mix > 0, traced
		spec.check = newChecker(wl, s.primed, counts, keep, &r.kept)
		r.load = runLoad(spec)
		if r.rep, err = s.c.stop(); err != nil {
			return nil, err
		}
		if r.load.exhausted {
			return nil, fmt.Errorf("request stream of %d ran out", len(in.bodies))
		}
		return r, nil
	}

	// Pass 1: untraced.
	p1, err := pass(0, false, loadSpec{window: cfg.window / 2, limit: maxTraced})
	if err != nil {
		return nil, err
	}
	plain, plainRep := p1.load, p1.rep
	n := len(plain.samples)
	// Pass 2: traced, the same n requests.
	p2, err := pass(1, true, loadSpec{limit: n})
	if err != nil {
		return nil, err
	}
	traced, tracedRep := p2.load, p2.rep
	if len(tracedRep.Handler) != n {
		return nil, fmt.Errorf("traced pass: %d handler spans for %d requests", len(tracedRep.Handler), n)
	}
	// Pass 3: in-process, over a fresh stack set up and primed the same way.
	p, err := newInproc(cfg, in)
	if err != nil {
		return nil, err
	}
	before := snapshot(p.current())
	recs, err := p.run(in.bodies, n)
	if err != nil {
		return nil, err
	}
	after := snapshot(p.current())
	if d := p.current().DurableStore(); d != nil {
		d.Close()
	}

	// The replayed calls must produce the bodies the server sent: then the
	// spans timed the server's work, not something else.
	mismatches := 0
	for i := range recs {
		r := &recs[i]
		switch wl.check {
		case checkPrimed:
			if !bytes.Equal(r.body, p2.primed[r.idx%len(p2.primed)]) {
				mismatches++
			}
		case checkSample:
			if b, ok := p2.kept.Load(r.idx); ok && !bytes.Equal(r.body, b.([]byte)) {
				mismatches++
			}
		case checkCount:
			if d, ok := parseDesc(r.body); !ok || d.resultCount != counts[r.idx%len(counts)] {
				mismatches++
			}
		}
	}

	if err := writeSpans(tracePath, traced, tracedRep.Handler, recs); err != nil {
		return nil, err
	}

	nf := float64(n)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / nf }
	var sum [nSpans]time.Duration
	for i := range recs {
		for k := 0; k < nSpans; k++ {
			sum[k] += recs[i].end[k] - recs[i].start[k]
		}
	}
	var rt, handler time.Duration
	hits := 0
	for _, s := range traced.samples {
		rt += s.lat
		if s.hit {
			hits++
		}
	}
	for _, h := range tracedRep.Handler {
		handler += time.Duration(h.Dur)
	}
	selectNs := time.Duration(after.Select.SelectNanos - before.Select.SelectNanos)
	layers := map[string]float64{
		"http.transport_us":      us(rt - handler),
		"server.self_us":         us(sum[spDecode] + sum[spRender]),
		"sqlparse.parse_us":      us(sum[spParse]),
		"treecache.lookup_us":    us(sum[spLookup]),
		"relation.select_us":     us(selectNs),
		"category.categorize_us": us(sum[spServe] - selectNs),
		"workload.learn_us":      us(sum[spLearn]),
		"category.estimate_us":   us(sum[spEstimate]),
	}
	attributed := 0.0
	for _, v := range layers {
		attributed += v
	}
	p50Plain, p50Traced := quantile(plain.latencies(), 0.5), quantile(traced.latencies(), 0.5)
	ratio := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	conjHits := after.Select.ConjunctHits - before.Select.ConjunctHits
	conjLookups := conjHits + after.Select.ConjunctMisses - before.Select.ConjunctMisses
	pruned := after.Storage.ZonePruned - before.Storage.ZonePruned
	zoned := pruned + after.Storage.ZoneScanned - before.Storage.ZoneScanned
	copied := after.Repair.CopiedNodes - before.Repair.CopiedNodes
	repairedNodes := copied + after.Repair.RebuiltNodes - before.Repair.RebuiltNodes
	sharded := after.Shard.ShardedNodes - before.Shard.ShardedNodes
	partitioned := sharded + after.Shard.SeqNodes - before.Shard.SeqNodes
	evictions := after.Cache.Evictions - before.Cache.Evictions

	metrics := []metric{
		{"http.transport_us", "us", layers["http.transport_us"]},
		{"server.handler_us", "us", us(handler)},
		{"server.self_us", "us", layers["server.self_us"]},
		{"sqlparse.parse_us", "us", layers["sqlparse.parse_us"]},
		{"sqlparse.signature_us", "us", us(sum[spSignature])},
		{"treecache.lookup_us", "us", layers["treecache.lookup_us"]},
		{"treecache.hit_ratio", "ratio", float64(hits) / nf},
		{"treecache.evictions_per_req", "count/req", float64(evictions) / nf},
		{"relation.select_us", "us", layers["relation.select_us"]},
		{"relation.conjunct_hit_ratio", "ratio", ratio(conjHits, conjLookups)},
		{"relation.zone_pruned_ratio", "ratio", ratio(pruned, zoned)},
		{"category.categorize_us", "us", layers["category.categorize_us"]},
		{"category.copied_node_ratio", "ratio", ratio(copied, repairedNodes)},
		{"category.sharded_node_ratio", "ratio", ratio(sharded, partitioned)},
		{"category.estimate_us", "us", layers["category.estimate_us"]},
		{"workload.learn_us", "us", layers["workload.learn_us"]},
		{"workload.preprocess_ms", "ms", float64(plainRep.PreprocessNanos) / 1e6},
		{"durable.open_ms", "ms", float64(plainRep.OpenNanos) / 1e6},
		{"durable.materialize_ms", "ms", float64(plainRep.MaterializeNanos) / 1e6},
		{"durable.loaded_mb", "MiB", float64(plainRep.LoadedBytes) / (1 << 20)},
		{"process.alloc_kb_per_req", "KiB/req", float64(plainRep.AllocBytes) / 1024 / nf},
		{"trace.unattributed_us", "us", us(rt) - attributed},
		{"trace.overhead_pct", "%", 100 * (float64(p50Traced) - float64(p50Plain)) / float64(p50Plain)},
	}
	attempted := len(plain.samples) + len(traced.samples) + n
	failed := plain.failed() + traced.failed() + mismatches
	return &runResult{
		attempted: attempted,
		failed:    failed,
		metrics:   metrics,
		info: map[string]any{
			"host": hostInfo(plainRep.GOMAXPROCS),
			"run": map[string]any{
				"workload": wl.name, "seed": cfg.seed, "rows": wl.rows, "logQueries": wl.logSize,
				"clients": clients, "tracedRequests": n, "failed": failed, "replayMismatches": mismatches,
				"p50PlainMs": ms(p50Plain), "p50TracedMs": ms(p50Traced), "spans": tracePath,
			},
			// The base of every ratio, so none is read without it.
			"bases": map[string]any{
				"responses": n, "conjunctLookups": conjLookups, "zoneDecisions": zoned,
				"repairNodes": repairedNodes, "partitionedNodes": partitioned,
			},
		},
	}, nil
}

// statsShot is a snapshot of the counters the layers expose.
type statsShot struct {
	Cache   repro.CacheStats
	Select  repro.SelectStats
	Storage repro.StorageStats
	Repair  repro.RepairStats
	Shard   repro.ShardingStats
}

func snapshot(sys *repro.System) statsShot {
	return statsShot{
		Cache:   sys.CacheStats(),
		Select:  sys.SelectStats(),
		Storage: sys.StorageStats(),
		Repair:  sys.RepairStats(),
		Shard:   sys.ShardingStats(),
	}
}

// newInproc sets up the stack in this process the way the serving process
// does, and primes it.
func newInproc(cfg runConfig, in *inputs) (*inproc, error) {
	var rel *repro.Relation
	store := ""
	if in.csvPath != "" {
		var err error
		if rel, err = loadRelation(in.csvPath); err != nil {
			return nil, err
		}
	} else {
		store = filepath.Join(in.dir, "store-inproc")
		if err := copyStore(in.storeDir, store); err != nil {
			return nil, err
		}
	}
	_, sys, _, err := buildStack(rel, store, in.logPath, false)
	if err != nil {
		return nil, err
	}
	p := &inproc{sys: sys}
	if cfg.wl.learn {
		if p.a, err = sys.Adaptive(); err != nil {
			return nil, err
		}
	}
	if cfg.wl.mix > 0 {
		for _, b := range in.bodies {
			if err := p.do(b, time.Now(), nil); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// writeSpans writes every span of the traced HTTP pass and the in-process
// pass, one JSON object per line.
func writeSpans(path string, traced *loadResult, handler []reqSpan, recs []ipRequest) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeFile(path, func(f io.Writer) error {
		bw := bufio.NewWriter(f)
		enc := json.NewEncoder(bw)
		for _, s := range traced.samples {
			enc.Encode(span{Pass: "http", Req: s.idx, Name: "http.request", Start: int64(s.start), End: int64(s.start + s.lat)})
		}
		for _, h := range handler {
			enc.Encode(span{Pass: "http", Req: h.Req, Name: "server.handler", Parent: "http.request", Start: h.Start, End: h.Start + h.Dur})
		}
		for i := range recs {
			r := &recs[i]
			enc.Encode(span{Pass: "inproc", Req: r.idx, Name: "inproc.request", Start: int64(r.start[spDecode]), End: int64(r.end[spRender])})
			for k := 0; k < nSpans; k++ {
				if r.end[k] != 0 {
					enc.Encode(span{Pass: "inproc", Req: r.idx, Name: spanNames[k], Parent: "inproc.request", Start: int64(r.start[k]), End: int64(r.end[k])})
				}
			}
		}
		return bw.Flush()
	})
}

// The /v1/query response shape and toJSONTree, as internal/server renders
// them. The replay checks its bodies against the server's byte for byte.

type queryRequest struct {
	SQL         string  `json:"sql"`
	Technique   string  `json:"technique,omitempty"`
	M           int     `json:"m,omitempty"`
	K           float64 `json:"k,omitempty"`
	X           float64 `json:"x,omitempty"`
	MaxDepth    int     `json:"maxDepth,omitempty"`
	MaxChildren int     `json:"maxChildren,omitempty"`
	TimeoutMs   int     `json:"timeoutMs,omitempty"`
}

type treeNode struct {
	Label    string     `json:"label"`
	Attr     string     `json:"attr,omitempty"`
	Count    int        `json:"count"`
	P        float64    `json:"p"`
	Pw       float64    `json:"pw"`
	Path     []int      `json:"path"`
	Children []treeNode `json:"children,omitempty"`
	Elided   int        `json:"elided,omitempty"`
}

type queryResponse struct {
	ResultCount int      `json:"resultCount"`
	Levels      []string `json:"levels"`
	EstCostAll  float64  `json:"estCostAll"`
	EstCostOne  float64  `json:"estCostOne"`
	Categories  int      `json:"categories"`
	Degraded    string   `json:"degraded,omitempty"`
	Tree        treeNode `json:"tree"`
}

func boundOrDefault(req, def int) int {
	if req <= 0 || (def > 0 && req > def) {
		return def
	}
	return req
}

func toJSONTree(n *repro.Node, path []int, maxDepth, maxChildren int) treeNode {
	out := treeNode{
		Label: n.Label.String(),
		Attr:  n.Label.Attr,
		Count: n.Size(),
		P:     n.P,
		Pw:    n.Pw,
		Path:  append([]int(nil), path...),
	}
	if out.Path == nil {
		out.Path = []int{}
	}
	if n.IsLeaf() {
		return out
	}
	if maxDepth > 0 && len(path) >= maxDepth {
		out.Elided = len(n.Children)
		return out
	}
	limit := len(n.Children)
	if maxChildren > 0 && limit > maxChildren {
		limit = maxChildren
		out.Elided = len(n.Children) - limit
	}
	for i := 0; i < limit; i++ {
		out.Children = append(out.Children, toJSONTree(n.Children[i], append(path, i), maxDepth, maxChildren))
	}
	return out
}
