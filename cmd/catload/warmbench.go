package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
)

// The warmbench mode (-warmbench) measures what predictive pre-warming buys
// under learning churn (DESIGN.md §13). It drives an AdaptiveSystem
// in-process — no HTTP, so the numbers isolate the categorization path —
// through three phases over the same query mix:
//
//	baseline     primed cache, no learning: the steady-state hit latency
//	storm-nowarm a LearnBatch every -learn-every requests, warming off:
//	             every learn staleness-bombs the cache and the foreground
//	             pays each stale-miss rebuild on its own clock
//	storm-warm   the same storm with the pre-warmer on: rebuilds happen in
//	             the background, the foreground mostly hits
//
// Each phase emits BenchmarkWarm/<phase>/<metric> lines for cmd/benchjson
// (see `make warmbench`): latencies, hit and miss counts, and warmed trees.

type warmbenchConfig struct {
	rows, queries int
	seed          int64
	mix           []string
	total         int
	learnEvery    int
	topK          int
	budget        time.Duration
	think         time.Duration
	cacheEntries  int
	cacheBytes    int64
}

// warmbenchResult is one phase's samples split by cache disposition, plus the
// end-of-phase counter snapshots explaining where the misses went.
type warmbenchResult struct {
	label     string
	hit, miss []time.Duration
	wall      time.Duration
	cache     repro.CacheStats
	warmer    repro.WarmerStats
}

func (r *warmbenchResult) all() []time.Duration {
	out := make([]time.Duration, 0, len(r.hit)+len(r.miss))
	out = append(out, r.hit...)
	return append(out, r.miss...)
}

func runWarmbench(cfg warmbenchConfig, bench bool) {
	fmt.Printf("warmbench: rows=%d workload=%d mix=%d n=%d learn-every=%d topk=%d think=%s\n",
		cfg.rows, cfg.queries, len(cfg.mix), cfg.total, cfg.learnEvery, cfg.topK, cfg.think)

	baseline := warmbenchPhase(cfg, "baseline", false, false)
	baseline.print(os.Stdout)
	nowarm := warmbenchPhase(cfg, "storm-nowarm", true, false)
	nowarm.print(os.Stdout)
	warmed := warmbenchPhase(cfg, "storm-warm", true, true)
	warmed.print(os.Stdout)

	base := quantile(baseline.all(), 0.50)
	if base > 0 {
		fmt.Printf("p50 vs baseline %s: storm-nowarm %.1fx, storm-warm %.1fx\n", base,
			float64(quantile(nowarm.all(), 0.50))/float64(base),
			float64(quantile(warmed.all(), 0.50))/float64(base))
	}
	if bench {
		baseline.printBench(os.Stdout)
		nowarm.printBench(os.Stdout)
		warmed.printBench(os.Stdout)
	}
}

// warmbenchPhase runs one phase against a fresh system (fresh cache, fresh
// statistics — phases must not inherit each other's warmth).
func warmbenchPhase(cfg warmbenchConfig, label string, storm, warming bool) *warmbenchResult {
	sys, err := repro.NewSystem(repro.DemoDataset(cfg.rows, cfg.seed), repro.Config{
		WorkloadSQL:      repro.DemoWorkloadSQL(cfg.queries, cfg.seed+1),
		Intervals:        repro.DemoIntervals(),
		TreeCacheEntries: cfg.cacheEntries,
		TreeCacheBytes:   cfg.cacheBytes,
	})
	if err != nil {
		log.Fatal(err)
	}
	a, err := sys.Adaptive()
	if err != nil {
		log.Fatal(err)
	}
	qs := make([]*repro.Query, len(cfg.mix))
	for i, sql := range cfg.mix {
		if qs[i], err = repro.ParseQuery(sql); err != nil {
			log.Fatalf("warmbench: mix query %d: %v", i, err)
		}
	}
	if warming {
		// Same technique and options as the measurement loop below, or the
		// warmed keys would never hit. No limiter: the bench wants the full
		// warming effect, not an admission-throttled sample of it.
		if w := a.StartWarmer(repro.WarmerConfig{TopK: cfg.topK, Budget: cfg.budget}); w == nil {
			log.Fatal("warmbench: warmer did not start")
		}
		defer a.StopWarmer()
	}

	ctx := context.Background()
	serve := func(q *repro.Query) (bool, time.Duration) {
		t0 := time.Now()
		out, err := a.System().ServeParsedWith(ctx, q, repro.CostBased, repro.Options{}, repro.ServePolicy{})
		if err != nil {
			log.Fatalf("warmbench %s: %v", label, err)
		}
		return out.Hit, time.Since(t0)
	}
	// Prime one uncounted pass so every phase starts from a fully warm cache;
	// the storm phases then measure churn, not cold starts.
	for _, q := range qs {
		serve(q)
	}

	res := &warmbenchResult{label: label}
	start := time.Now()
	for i := 0; i < cfg.total; i++ {
		if storm && i > 0 && i%cfg.learnEvery == 0 {
			// The learn stream repeats the mix — popular signatures stay
			// popular — which is exactly what the warmer's top-K rides on.
			if err := a.LearnBatch(cfg.mix); err != nil {
				log.Fatal(err)
			}
		}
		hit, lat := serve(qs[i%len(qs)])
		if hit {
			res.hit = append(res.hit, lat)
		} else {
			res.miss = append(res.miss, lat)
		}
		if cfg.think > 0 {
			time.Sleep(cfg.think)
		}
	}
	res.wall = time.Since(start)
	if ws, ok := a.WarmerStats(); ok {
		res.warmer = ws
	}
	a.StopWarmer()
	res.cache = a.System().CacheStats()
	return res
}

func (r *warmbenchResult) print(w *os.File) {
	total := len(r.hit) + len(r.miss)
	fmt.Fprintf(w, "%s: %d requests in %s, %d hits (%.0f%%)\n", r.label,
		total, r.wall.Round(time.Millisecond), len(r.hit), 100*float64(len(r.hit))/float64(total))
	fmt.Fprintf(w, "  p50=%-10s p95=%-10s hit_p50=%-10s miss_p50=%s\n",
		quantile(r.all(), 0.50), quantile(r.all(), 0.95),
		quantile(r.hit, 0.50), quantile(r.miss, 0.50))
	fmt.Fprintf(w, "  cache: stale=%d\n", r.cache.Stale)
	if r.warmer.Cycles > 0 {
		fmt.Fprintf(w, "  warmer: cycles=%d warmed=%d alreadyCached=%d errors=%d\n",
			r.warmer.Cycles, r.warmer.Warmed, r.warmer.AlreadyCached, r.warmer.Errors)
	}
}

// printBench renders the phase as go-bench lines. Latencies are honest
// ns/op; the counter metrics borrow the format (value in the ns/op slot) so
// benchjson folds everything into one document.
func (r *warmbenchResult) printBench(w *os.File) {
	emit := func(metric string, v float64) {
		if v > 0 {
			fmt.Fprintf(w, "BenchmarkWarm/%s/%s 1 %.0f ns/op\n", r.label, metric, v)
		}
	}
	emit("p50", float64(quantile(r.all(), 0.50)))
	emit("p95", float64(quantile(r.all(), 0.95)))
	emit("hit_p50", float64(quantile(r.hit, 0.50)))
	emit("miss_p50", float64(quantile(r.miss, 0.50)))
	emit("hits", float64(len(r.hit)))
	emit("misses", float64(len(r.miss)))
	emit("warmed", float64(r.warmer.Warmed))
}
