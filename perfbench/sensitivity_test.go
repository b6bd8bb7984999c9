package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// benchmark starts its serving processes from its own executable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// small scales a workload down so that one run takes a few seconds.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.rows, w.logSize, w.stream, w.sample = 4000, 2000, 6000, 20
	if w.mix > 0 {
		w.mix = 32
	}
	if w.durable {
		w.rows = 8000
	}
	return w
}

// measure runs one small measured run and returns its end-to-end metrics.
func measure(t *testing.T, name string, faults ...string) map[string]float64 {
	t.Helper()
	res, err := runMeasured(runConfig{
		wl:      small(t, name),
		seed:    7,
		window:  2 * time.Second,
		setups:  3,
		faults:  faults,
		workDir: filepath.Join(t.TempDir(), name),
	})
	if err != nil {
		t.Fatalf("%s %v: %v", name, faults, err)
	}
	if res.failed != 0 {
		t.Fatalf("%s %v: %d of %d requests failed", name, faults, res.failed, res.attempted)
	}
	out := map[string]float64{}
	for _, m := range res.metrics {
		out[m.name] = m.value
	}
	t.Logf("%-12s %-28v p50 %.3f ms, setup %.3f s", name, faults, out["p50_ms"], out["setup_s"])
	return out
}

// bounds reads the end-to-end bounds from BENCHMARK.json.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// TestSensitivity checks that each workload exercises or bypasses the
// layers BENCHMARK.json says it does: latency injected into one layer must
// move exactly the workloads that run it.
func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("starts serving processes and runs nine small loads")
	}
	bound := bounds(t)
	names := []string{"hot_hits", "cold_durable", "learn_churn"}
	base := map[string]map[string]float64{}
	for _, n := range names {
		base[n] = measure(t, n)
	}

	// Every cost-based build and repair passes categorize.level once per
	// level: misses and repairs slow down, cache hits do not.
	const perLevel = 4 * time.Millisecond
	rule := "categorize.level=" + perLevel.String()
	for _, n := range names {
		got := measure(t, n, rule)
		rise := (got["p50_ms"] - base[n]["p50_ms"]) / base[n]["p50_ms"]
		switch n {
		case "hot_hits":
			if rise > bound["p50_ms"] || -rise > bound["p50_ms"] {
				t.Errorf("%s: p50 moved %+.0f%% under %s, beyond its %.0f%% bound", n, 100*rise, rule, 100*bound["p50_ms"])
			}
		default:
			if got["p50_ms"]-base[n]["p50_ms"] < ms(perLevel) {
				t.Errorf("%s: p50 %.3f -> %.3f ms under %s, want a rise of at least %v", n, base[n]["p50_ms"], got["p50_ms"], rule, perLevel)
			}
		}
	}

	// Only a restart from the durable store runs recovery.
	const recovery = 400 * time.Millisecond
	rule = "durable.recover=" + recovery.String()
	for _, n := range names {
		got := measure(t, n, rule)
		rise := got["setup_s"] - base[n]["setup_s"]
		if moved := rise >= recovery.Seconds()/2; moved != (n == "cold_durable") {
			t.Errorf("%s: setup_s %.3f -> %.3f s under %s (moved %v)", n, base[n]["setup_s"], got["setup_s"], rule, moved)
		}
	}
}
