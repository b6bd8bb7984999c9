package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// runConfig is one benchmark run.
type runConfig struct {
	wl      workload
	seed    int64
	window  time.Duration
	setups  int      // set-ups per run; setup_s is their median
	faults  []string // faultinject rules for every serving process
	workDir string   // scratch directory for this run's inputs
}

// runResult is one run's outcome.
type runResult struct {
	attempted, failed int
	metrics           []metric
	info              map[string]any // host, run and workload descriptors
}

type metric struct {
	name  string
	unit  string
	value float64
}

// setupResult is one set-up: the serving process and the time from its
// first program call to the end of priming.
type setupResult struct {
	c      *child
	primed [][]byte
	dur    time.Duration
}

// setUp starts one serving process over in and primes it.
func setUp(cfg runConfig, in *inputs, k int, trace bool) (*setupResult, error) {
	o := serverOpts{csv: in.csvPath, log: in.logPath, learn: cfg.wl.learn, trace: trace, faults: cfg.faults}
	if in.storeDir != "" {
		o.store = filepath.Join(in.dir, "store-"+strconv.Itoa(k))
		os.RemoveAll(o.store)
		if err := copyStore(in.storeDir, o.store); err != nil {
			return nil, err
		}
	}
	c, err := startChild(o)
	if err != nil {
		return nil, err
	}
	s := &setupResult{c: c}
	if cfg.wl.mix > 0 {
		if s.primed, err = prime(c.url(), in.bodies); err != nil {
			c.kill()
			return nil, err
		}
	}
	s.dur = c.setup + time.Since(c.ready)
	return s, nil
}

// setUpMany sets up cfg.setups times and keeps the last serving process; the
// earlier ones are stopped. It returns the median set-up time.
func setUpMany(cfg runConfig, in *inputs, trace bool) (*setupResult, time.Duration, error) {
	var durs []time.Duration
	var last *setupResult
	for k := 0; k < cfg.setups; k++ {
		s, err := setUp(cfg, in, k, trace)
		if err != nil {
			return nil, 0, err
		}
		durs = append(durs, s.dur)
		if k < cfg.setups-1 {
			if _, err := s.c.stop(); err != nil {
				return nil, 0, err
			}
			if in.storeDir != "" {
				os.RemoveAll(filepath.Join(in.dir, "store-"+strconv.Itoa(k)))
			}
			continue
		}
		last = s
	}
	return last, quantile(durs, 0.5), nil
}

// newChecker builds the per-response check for the workload. primed holds
// the priming bodies (checkPrimed); counts the expected resultCount per mix
// query (checkCount). Sampled bodies (checkSample) are copied into kept.
func newChecker(wl workload, primed [][]byte, counts []int, keep map[int]bool, kept *sync.Map) checker {
	var primedDesc []desc
	for _, b := range primed {
		d, _ := parseDesc(b)
		primedDesc = append(primedDesc, d)
	}
	return func(r response) (desc, bool) {
		if r.status != http.StatusOK {
			return desc{}, false
		}
		if wl.wantCache != "" && r.cache != wl.wantCache {
			return desc{}, false
		}
		switch wl.check {
		case checkPrimed:
			j := r.idx % len(primed)
			return primedDesc[j], bytes.Equal(r.body, primed[j])
		case checkCount:
			d, ok := parseDesc(r.body)
			return d, ok && d.resultCount == counts[r.idx%len(counts)]
		default:
			d, ok := parseDesc(r.body)
			if keep[r.idx] {
				kept.Store(r.idx, bytes.Clone(r.body))
			}
			return d, ok
		}
	}
}

// sampleIndices picks n distinct stream positions below limit, seeded.
func sampleIndices(n, limit int, seed int64) map[int]bool {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[int]bool, n)
	for len(out) < n {
		out[rng.Intn(limit)] = true
	}
	return out
}

// runMeasured is the untraced run: set up, load for the window, stop, and
// verify every response.
func runMeasured(cfg runConfig) (*runResult, error) {
	wl := cfg.wl
	genStart := time.Now()
	in, err := generateInputs(wl, cfg.seed, cfg.workDir)
	if err != nil {
		return nil, err
	}
	genDur := time.Since(genStart)
	var counts []int
	if wl.check == checkCount {
		if counts, err = resultCounts(in, in.sqls); err != nil {
			return nil, err
		}
	}

	s, setup, err := setUpMany(cfg, in, false)
	if err != nil {
		return nil, err
	}
	defer s.c.kill()
	// Sampled bodies: positions the run is sure to reach, so the sample
	// size does not depend on throughput.
	keep := map[int]bool{}
	if wl.check == checkSample {
		keep = sampleIndices(wl.sample, wl.sample*4, deriveSeed(cfg.seed, seedSample))
	}
	var kept sync.Map
	res := runLoad(loadSpec{
		url: s.c.url(), bodies: in.bodies, cycle: wl.mix > 0, window: cfg.window,
		check: newChecker(wl, s.primed, counts, keep, &kept),
	})
	rep, err := s.c.stop()
	if err != nil {
		return nil, err
	}
	if res.exhausted {
		return nil, fmt.Errorf("request stream of %d ran out before the window closed", len(in.bodies))
	}

	// Verify against the uncached Shards=1 reference, built only now so that
	// it and the serving process never hold the data at once.
	ref, err := newReference(in)
	if err != nil {
		return nil, err
	}
	mismatches, verified := 0, 0
	switch wl.check {
	case checkPrimed:
		for i, b := range s.primed {
			verified++
			if !bytes.Equal(b, ref.body(in.bodies[i])) {
				mismatches++
			}
		}
	case checkSample:
		for idx := range keep {
			b, ok := kept.Load(idx)
			if !ok {
				continue // not reached, or failed before its body was read
			}
			verified++
			if !bytes.Equal(b.([]byte), ref.body(in.bodies[idx])) {
				mismatches++
			}
		}
		if verified < len(keep) && res.failed() == 0 {
			return nil, fmt.Errorf("only %d of %d sampled requests completed", verified, len(keep))
		}
	case checkCount:
		verified = len(res.samples)
	}

	lats := res.latencies()
	var descs []desc
	hits := 0
	for _, smp := range res.samples {
		if smp.ok {
			descs = append(descs, smp.desc)
		}
		if smp.hit {
			hits++
		}
	}
	attempted := len(res.samples)
	failed := res.failed() + mismatches
	out := &runResult{
		attempted: attempted,
		failed:    failed,
		metrics: []metric{
			{"p50_ms", "ms", ms(quantile(lats, 0.50))},
			{"p99_ms", "ms", ms(quantile(lats, 0.99))},
			{"throughput_rps", "1/s", float64(res.succeeded()) / res.wall.Seconds()},
			{"setup_s", "s", setup.Seconds()},
			{"rss_peak_mb", "MiB", float64(rep.VmHWMKiB) / 1024},
		},
		info: map[string]any{
			"host": hostInfo(rep.GOMAXPROCS),
			"run": map[string]any{
				"workload": wl.name, "seed": cfg.seed, "rows": wl.rows, "logQueries": wl.logSize,
				"clients": clients, "windowSeconds": cfg.window.Seconds(), "setups": cfg.setups,
				"requests": attempted, "p99Samples": len(lats), "failed": failed,
				"errorRate":      float64(failed) / float64(attempted),
				"bodiesVerified": verified, "bodyMismatches": mismatches,
				"hitRatio":        float64(hits) / float64(attempted),
				"inputGenSeconds": genDur.Seconds(),
			},
			"descriptors": describe(descs),
		},
	}
	return out, nil
}

// describe summarizes the responses: what share of the work is large
// results or big trees.
func describe(ds []desc) map[string]any {
	var rc, cats, size []int
	for _, d := range ds {
		rc = append(rc, d.resultCount)
		cats = append(cats, d.categories)
		size = append(size, d.bytes)
	}
	return map[string]any{
		"resultCount_p50": quantile(rc, 0.5), "resultCount_p99": quantile(rc, 0.99),
		"categories_p50": quantile(cats, 0.5), "categories_p99": quantile(cats, 0.99),
		"responseBytes_p50": quantile(size, 0.5),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile; zero for no samples.
func quantile[T int | time.Duration](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}
