// Command catload drives the categorization HTTP service under load and
// reports latency quantiles split by cache temperature — the measurement
// harness behind BENCH_serve.json.
//
// Two modes:
//
//	catload -url http://host:8080 …        load an external catserve
//	catload -inproc …                      spin cached + uncached servers
//	                                       in-process and compare them
//
// Workers are closed-loop by default (each issues its next request when the
// previous one returns); -rate R switches to an open loop that dispatches R
// requests per second regardless of completions, the shape that exposes
// queueing collapse. With -retries N a shed request (503 from admission
// control or draining) is retried up to N times with capped exponential
// backoff plus jitter, honoring the server's Retry-After hint — the polite
// client the shed path is designed for; the summary reports how many sheds
// were observed and how many requests recovered. Every response's X-Cache header classifies the sample
// as cold (miss: selection + categorization ran) or warm (hit: served from
// the tree cache), so one run yields both distributions.
//
// With -bench the summary is also emitted as `go test -bench`-style lines
// (BenchmarkCatload/<label>/<metric>), which cmd/benchjson folds into a
// JSON record — see `make servebench`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/server"
)

func main() {
	var (
		url     = flag.String("url", "", "base URL of a running catserve (mutually exclusive with -inproc)")
		inproc  = flag.Bool("inproc", false, "spin cached and uncached servers in-process and load both")
		rows    = flag.Int("rows", 20000, "dataset size for -inproc")
		queries = flag.Int("queries", 10000, "workload size for -inproc")
		seed    = flag.Int64("seed", 1, "generation seed")

		workers = flag.Int("c", 8, "concurrent clients (closed loop)")
		total   = flag.Int("n", 400, "total requests per target")
		rate    = flag.Float64("rate", 0, "open-loop dispatch rate in req/s (0 = closed loop)")
		retries = flag.Int("retries", 0, "retry attempts per request for shed (503) responses, with capped exponential backoff honoring Retry-After")
		mixSize = flag.Int("mix", 16, "distinct queries cycled through the load")
		tech    = flag.String("technique", "", "categorization technique (empty = server default)")
		depth   = flag.Int("maxdepth", 3, "tree depth bound sent with each request")

		cacheEntries = flag.Int("cache-entries", 256, "tree cache entry bound for the -inproc cached server")
		cacheMB      = flag.Int64("cache-mb", 64, "tree cache byte bound in MiB for the -inproc cached server")

		warmbench  = flag.Bool("warmbench", false, "run the 3-phase learn-storm warming benchmark in-process (see cmd/catload/warmbench.go)")
		learnEvery = flag.Int("learn-every", 25, "warmbench: learn a batch every this many requests")
		warmTopK   = flag.Int("warm-topk", 16, "warmbench: pre-warm this many top signatures in the storm-warm phase")
		warmBudget = flag.Duration("warm-budget", 0, "warmbench: wall budget per warming build (0 = 2s default)")
		think      = flag.Duration("think", time.Millisecond, "warmbench: client think time between requests (excluded from latencies)")

		bench = flag.Bool("bench", false, "also print go-bench-format lines for cmd/benchjson")
	)
	flag.Parse()

	if *warmbench {
		runWarmbench(warmbenchConfig{
			rows: *rows, queries: *queries, seed: *seed,
			mix:   queryMix(*mixSize, *seed),
			total: *total, learnEvery: *learnEvery,
			topK: *warmTopK, budget: *warmBudget, think: *think,
			cacheEntries: *cacheEntries, cacheBytes: *cacheMB << 20,
		}, *bench)
		return
	}

	if (*url == "") == !*inproc {
		log.Fatal("catload: exactly one of -url or -inproc is required")
	}

	mix := queryMix(*mixSize, *seed)
	cfg := loadConfig{
		workers: *workers, total: *total, rate: *rate, retries: *retries,
		mix: mix, technique: *tech, maxDepth: *depth,
	}

	if *url != "" {
		res := runLoad(*url, cfg)
		res.print(os.Stdout, "target")
		if *bench {
			res.printBench(os.Stdout, "target")
		}
		return
	}

	// In-process comparison: same dataset and workload, one server with the
	// tree cache and one without.
	build := func(entries int, bytes int64) *httptest.Server {
		sys, err := repro.NewSystem(repro.DemoDataset(*rows, *seed), repro.Config{
			WorkloadSQL:      repro.DemoWorkloadSQL(*queries, *seed+1),
			Intervals:        repro.DemoIntervals(),
			TreeCacheEntries: entries,
			TreeCacheBytes:   bytes,
		})
		if err != nil {
			log.Fatal(err)
		}
		srv, err := server.New(server.Config{System: sys, MaxDepth: 6, MaxChildren: 200})
		if err != nil {
			log.Fatal(err)
		}
		return httptest.NewServer(srv.Handler())
	}

	fmt.Printf("catload: inproc rows=%d workload=%d mix=%d n=%d c=%d\n",
		*rows, *queries, len(mix), *total, *workers)

	uncachedSrv := build(0, 0)
	uncached := runLoad(uncachedSrv.URL, cfg)
	uncachedSrv.Close()
	uncached.print(os.Stdout, "uncached")

	cachedSrv := build(*cacheEntries, *cacheMB<<20)
	cached := runLoad(cachedSrv.URL, cfg)
	cachedSrv.Close()
	cached.print(os.Stdout, "cached")

	if cu, cc := uncached.throughput(), cached.throughput(); cu > 0 {
		fmt.Printf("throughput: cached %.1f rps vs uncached %.1f rps (%.2fx)\n", cc, cu, cc/cu)
	}
	if cold, warm := quantile(cached.cold, 0.50), quantile(cached.warm, 0.50); warm > 0 {
		fmt.Printf("cached p50: cold %s vs warm %s (%.1fx)\n", cold, warm, float64(cold)/float64(warm))
	}

	if *bench {
		uncached.printBench(os.Stdout, "uncached")
		cached.printBench(os.Stdout, "cached")
	}
}

// queryMix builds distinct queries from the demo workload generator, so the
// load's shape matches the mined workload's distribution.
func queryMix(n int, seed int64) []string {
	seen := make(map[string]bool)
	var mix []string
	// Over-generate: the workload repeats popular queries by design.
	for _, sql := range repro.DemoWorkloadSQL(n*20, seed+2) {
		if !seen[sql] {
			seen[sql] = true
			mix = append(mix, sql)
			if len(mix) == n {
				break
			}
		}
	}
	if len(mix) == 0 {
		log.Fatal("catload: empty query mix")
	}
	return mix
}

type loadConfig struct {
	workers   int
	total     int
	rate      float64
	retries   int
	mix       []string
	technique string
	maxDepth  int
}

// loadResult holds one target's samples split by cache temperature.
type loadResult struct {
	cold, warm []time.Duration
	errors     int
	wall       time.Duration
	// shed counts 503 responses observed (including ones later recovered by
	// retry); recovered counts requests that succeeded after ≥1 shed.
	shed, recovered int
}

func (r *loadResult) requests() int { return len(r.cold) + len(r.warm) }

func (r *loadResult) throughput() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.requests()) / r.wall.Seconds()
}

func (r *loadResult) all() []time.Duration {
	out := make([]time.Duration, 0, r.requests())
	out = append(out, r.cold...)
	out = append(out, r.warm...)
	return out
}

// runLoad fires cfg.total requests at url and collects per-request latency.
func runLoad(url string, cfg loadConfig) *loadResult {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.workers * 2,
		MaxIdleConnsPerHost: cfg.workers * 2,
	}}

	type sample struct {
		lat   time.Duration
		warm  bool
		err   bool
		sheds int
	}
	samples := make(chan sample, cfg.total)

	body := func(i int) []byte {
		req := map[string]any{"sql": cfg.mix[i%len(cfg.mix)], "maxDepth": cfg.maxDepth}
		if cfg.technique != "" {
			req["technique"] = cfg.technique
		}
		raw, _ := json.Marshal(req)
		return raw
	}

	// shoot issues one logical request, retrying shed 503s up to cfg.retries
	// times with capped exponential backoff (plus jitter, so the retry wave
	// doesn't re-stampede the queue it just overflowed), honoring the
	// server's Retry-After as a floor. The recorded latency spans the whole
	// attempt chain — the client-observed cost of the request, backoff
	// included. Only 503 retries: anything else is not a shed.
	shoot := func(i int) sample {
		start := time.Now()
		var sheds int
		for attempt := 0; ; attempt++ {
			resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(body(i)))
			if err != nil {
				return sample{err: true, sheds: sheds}
			}
			_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				sheds++
				if attempt < cfg.retries {
					time.Sleep(retryBackoff(attempt, resp.Header.Get("Retry-After")))
					continue
				}
			}
			if resp.StatusCode != http.StatusOK {
				return sample{err: true, sheds: sheds}
			}
			return sample{lat: time.Since(start), warm: resp.Header.Get("X-Cache") == "hit", sheds: sheds}
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	if cfg.rate > 0 {
		// Open loop: dispatch on a fixed schedule, unbounded concurrency.
		interval := time.Duration(float64(time.Second) / cfg.rate)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for i := 0; i < cfg.total; i++ {
			<-tick.C
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				samples <- shoot(i)
			}(i)
		}
	} else {
		// Closed loop: cfg.workers clients, each back-to-back.
		var next atomic.Int64
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= cfg.total {
						return
					}
					samples <- shoot(i)
				}
			}()
		}
	}
	wg.Wait()
	wall := time.Since(start)
	close(samples)

	res := &loadResult{wall: wall}
	for s := range samples {
		res.shed += s.sheds
		switch {
		case s.err:
			res.errors++
		case s.warm:
			res.warm = append(res.warm, s.lat)
		default:
			res.cold = append(res.cold, s.lat)
		}
		if !s.err && s.sheds > 0 {
			res.recovered++
		}
	}
	return res
}

// retryBackoff is the wait before retry #attempt: 50ms doubling per attempt,
// capped at 2s, with up to +50% jitter, and never below the server's
// Retry-After hint (whole seconds, per the shed path's contract).
func retryBackoff(attempt int, retryAfter string) time.Duration {
	d := 50 * time.Millisecond << min(attempt, 10)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		if floor := time.Duration(secs) * time.Second; d < floor {
			d = floor
		}
	}
	return d
}

// quantile returns the q-th latency quantile (nearest-rank) of a sample set.
func quantile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func (r *loadResult) print(w *os.File, label string) {
	fmt.Fprintf(w, "%s: %d requests in %s (%.1f rps), %d errors\n",
		label, r.requests(), r.wall.Round(time.Millisecond), r.throughput(), r.errors)
	if r.shed > 0 {
		fmt.Fprintf(w, "  shed    %d 503s observed, %d requests recovered by retry\n", r.shed, r.recovered)
	}
	line := func(name string, lats []time.Duration) {
		if len(lats) == 0 {
			return
		}
		fmt.Fprintf(w, "  %-7s n=%-5d p50=%-10s p95=%-10s p99=%s\n", name, len(lats),
			quantile(lats, 0.50), quantile(lats, 0.95), quantile(lats, 0.99))
	}
	line("overall", r.all())
	line("cold", r.cold)
	line("warm", r.warm)
}

// printBench renders the summary as go-bench lines for cmd/benchjson.
func (r *loadResult) printBench(w *os.File, label string) {
	emit := func(metric string, ns float64) {
		if ns > 0 {
			fmt.Fprintf(w, "BenchmarkCatload/%s/%s 1 %.0f ns/op\n", label, metric, ns)
		}
	}
	if tp := r.throughput(); tp > 0 {
		emit("mean_interarrival", 1e9/tp) // ns between completions: inverse throughput
	}
	emit("p50", float64(quantile(r.all(), 0.50)))
	emit("p95", float64(quantile(r.all(), 0.95)))
	emit("p99", float64(quantile(r.all(), 0.99)))
	emit("cold_p50", float64(quantile(r.cold, 0.50)))
	emit("warm_p50", float64(quantile(r.warm, 0.50)))
}
