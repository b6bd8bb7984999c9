// Command perfbench is the repository's end-to-end serving benchmark. For
// each workload it generates the inputs from --seed, starts the serving
// stack (catserve's set-up path and defaults) in a fresh child process
// behind a loopback HTTP listener, drives POST /v1/query with two
// closed-loop clients for --seconds, checks every response, and prints the
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": …, "unit": "ms"}, …}}
//
// With --trace 0 the metrics are the end-to-end ones (p50_ms, p99_ms,
// throughput_rps, setup_s, rss_peak_mb). With --trace 1 a separate traced
// run reports the per-layer split instead (see trace.go). The line before
// the result records the host, the run and the workload's response
// descriptors. BENCHMARK.json lists the workloads and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload hot_hits --seed 1 --seconds 30 --trace 0
//
// The sensitivity self-check (faultinject latency at one layer must move
// exactly the workloads that use it) is a test in this directory:
//
//	cd perfbench && go test -run Sensitivity -v .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// setupsPerRun is how many times each run sets the stack up; setup_s is
// their median.
const setupsPerRun = 5

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload hot_hits|cold_durable|learn_churn, --seconds > 0, --trace 0|1")
		return 2
	}
	cfg := runConfig{
		wl:      wl,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		setups:  setupsPerRun,
		workDir: filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid())),
	}
	defer os.RemoveAll(cfg.workDir)
	var res *runResult
	if *trace == 1 {
		res, err = runTraced(cfg, filepath.Join(".bench_build", "traces", wl.name+".jsonl"))
	} else {
		res, err = runMeasured(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return printResult(res)
}

// printResult writes the run record line and then the result line.
func printResult(res *runResult) int {
	info, err := json.Marshal(res.info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(info))
	metrics := make(map[string]any, len(res.metrics))
	for _, m := range res.metrics {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// hostInfo fingerprints the machine, so results from different hosts are
// never compared.
func hostInfo(serverProcs int) map[string]any {
	return map[string]any{
		"cpu":              cpuModel(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"serverGomaxprocs": serverProcs,
		"go":               runtime.Version(),
		"os":               runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
