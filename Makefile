# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench bench-all servebench selectbench warmbench segmentbench perfbench check chaos crashchaos report examples fuzz lint lint-selfcheck lint-perf ci clean

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Vet, catlint, plus the race-checked hot packages: the categorizer building
# over a relation that is being appended to, the relation's columns and
# conjunct-bitmap cache, and the serving path (singleflight tree cache, copy-on-write workload stats,
# bounded session table, admission limiter, fault injector).
check: lint
	go test -race ./internal/category ./internal/relation ./internal/sqlparse \
		./internal/treecache ./internal/server ./internal/resilience/... \
		./internal/workload .

# catlint (DESIGN.md §11): the project-specific static-analysis suite. Every
# check mechanizes an invariant a past PR broke and then fixed by hand. Use
# `go run ./cmd/catlint -format=json ./...` for machine-readable diagnostics
# and `go run ./cmd/catlint -list` for the check inventory.
lint:
	gofmt -l . | grep . && exit 1 || true
	go vet ./...
	go run ./cmd/catlint ./...

# Self-check: catlint must exit non-zero on the seeded-violation fixtures
# (the go tool's ... wildcard skips testdata, so the fixture packages are
# enumerated outright) and its own fixture tests must pass. go vet must
# report every copy in internal/lint/testdata/vet, the job copylocks took
# over from catlint (DESIGN.md §11): each line marked `// vet: <message>`
# must draw that message.
lint-selfcheck:
	@if go run ./cmd/catlint $$(find internal/lint/testdata/src -name '*.go' \
		| xargs -n1 dirname | sort -u | sed 's|^|./|') >/dev/null; then \
		echo "catlint failed to flag the seeded fixture violations" >&2; exit 1; \
	else echo "catlint flags the seeded fixtures: ok"; fi
	@f=internal/lint/testdata/vet/vet.go; \
	if out=$$(go vet ./$$(dirname $$f) 2>&1); then \
		echo "go vet passed $$f" >&2; exit 1; fi; \
	grep -n '// vet: ' $$f | while IFS= read -r m; do \
		n=$${m%%:*}; msg=$${m##*// vet: }; \
		echo "$$out" | grep -q "vet.go:$$n:[0-9]*: .*$$msg" || { \
			echo "go vet did not report $$f:$$n ($$msg)" >&2; exit 1; }; \
	done && echo "go vet reports every copy in the vet fixture: ok"
	go test ./internal/lint

# Perf gate: the interprocedural passes (call graph + effect summaries,
# DESIGN.md §16) must keep a full-tree catlint run under 60 seconds, so the
# suite stays cheap enough to sit in every CI run. Builds the binary first so
# the timing measures analysis, not compilation.
lint-perf:
	@go build -o catlint ./cmd/catlint
	@start=$$(date +%s); ./catlint -format=github ./... || exit 1; \
	end=$$(date +%s); elapsed=$$((end - start)); \
	echo "catlint full tree: $${elapsed}s"; \
	if [ $$elapsed -ge 60 ]; then \
		echo "catlint took $${elapsed}s, budget is 60s" >&2; exit 1; \
	fi
	@rm -f catlint

# Everything CI runs, in CI's order.
ci:
	./ci.sh

# The fault-injection chaos suite (DESIGN.md §10) under the race detector:
# seeded latency/stall/panic faults at every named site while 8 workers
# hammer the serving path; asserts only 200/499/503/504 escape, cache hits
# are never degraded trees, and nothing leaks after the drain.
chaos:
	go test -race -count=1 -run 'TestChaos' -v ./internal/server

# The crash-recovery chaos suite (DESIGN.md §15) under the race detector:
# the full durable-store test set — every-injection-point crash/recover
# sweeps, double crashes during recovery, byte-granular WAL truncation, WAL
# and codec fuzz seeds — plus the CRASHCHAOS-gated scale runs: a 100k-row
# ingest killed at sampled points per fault site, and the 1.7M-row store
# reopened read-only, materialized, and answering a selective Select.
crashchaos:
	CRASHCHAOS=1 go test -race -count=1 -timeout=30m -v \
		-run 'TestCrashChaos|TestRecovery|TestScaleReopenSelect|Fuzz' \
		./internal/relation/durable

# The categorizer/columnar benchmarks, recorded as BENCH_categorize.json
# (testdata/bench_seed.txt holds the pre-columnar baseline for the ratios).
# The relation's Select and Segment benchmarks have their own targets below.
bench:
	{ go test -run='^$$' -bench=. -benchmem -count=5 ./internal/category ; \
	  go test -run='^$$' -bench='^Benchmark(SortByValue|CatColumnLookup)$$' -benchmem -count=5 ./internal/relation ; } \
		| tee bench_output.txt \
		| go run ./cmd/benchjson -baseline testdata/bench_seed.txt \
		  -note "column storage + dictionary-coded partitioning vs row-wise seed" \
		  -o BENCH_categorize.json
	@echo wrote BENCH_categorize.json

# Every benchmark in the repo (one per table/figure of the paper; see
# EXPERIMENTS.md).
bench-all:
	go test -bench=. -benchmem ./...

# The serving-path numbers, recorded as BENCH_serve.json: httptest endpoint
# benchmarks (per-request cost, cached vs uncached) plus cmd/catload's
# 8-client load run at paper scale (20k rows) with the cold/warm latency
# split. Both emit go-bench-format lines, so benchjson folds them together.
servebench:
	{ go test -run='^$$' -bench='BenchmarkQueryEndpoint' -count=3 ./internal/server ; \
	  go run ./cmd/catload -inproc -bench -rows 20000 -queries 10000 -n 400 -c 8 -mix 16 ; } \
		| tee servebench_output.txt \
		| go run ./cmd/benchjson \
		  -note "singleflight tree cache + snapshot stats: httptest endpoint benchmarks and catload 8-client run, rows=20000" \
		  -o BENCH_serve.json
	@echo wrote BENCH_serve.json

# The selection-engine numbers, recorded as BENCH_select.json: warm
# (conjunct-cache hit), single-conjunct, and cold (cache dropped per
# iteration) Select at paper scale, against the pre-vectorization row-wise
# baseline in testdata/select_seed.txt.
selectbench:
	go test -run='^$$' -bench='BenchmarkSelectQuery' -benchmem -count=5 ./internal/relation \
		| tee selectbench_output.txt \
		| go run ./cmd/benchjson -baseline testdata/select_seed.txt \
		  -note "vectorized bitmap selection + conjunct-bitmap cache vs row-wise seed, rows=20000" \
		  -o BENCH_select.json
	@echo wrote BENCH_select.json

# The append-maintenance numbers, recorded as BENCH_segment.json: steady-state
# per-row Append cost at growing preloads, and the cost of one append plus a
# warm, extended Select on a preloaded 100k relation (DESIGN.md §14).
segmentbench:
	go test -run='^$$' -bench='^BenchmarkSegment' -benchmem -count=5 ./internal/relation \
		| tee segmentbench_output.txt \
		| go run ./cmd/benchjson \
		  -note "incremental columnar maintenance: per-row append cost and append-then-read (rows=100000, DESIGN.md §14)" \
		  -o BENCH_segment.json
	@echo wrote BENCH_segment.json

# The learning-churn numbers, recorded as BENCH_warm.json: cmd/catload's
# 3-phase warmbench (baseline, learn storm without warming, learn storm with
# the pre-warmer) at paper scale — p50/p95 serve latency, hit and miss
# counts, and the trees the warmer built (DESIGN.md §13).
warmbench:
	go run ./cmd/catload -warmbench -bench -rows 20000 -queries 10000 \
		-n 600 -mix 16 -learn-every 25 -warm-topk 16 \
		| tee warmbench_output.txt \
		| go run ./cmd/benchjson \
		  -note "stale misses + predictive pre-warming under a learn storm (DESIGN.md §13), rows=20000, learn-every=25" \
		  -o BENCH_warm.json
	@echo wrote BENCH_warm.json

# The end-to-end serving benchmark (perfbench/, BENCHMARK.json): one
# workload over loopback HTTP, printing its metrics as one JSON line. TRACE=1
# runs the traced per-layer split instead. Builds into .bench_build/.
WORKLOAD ?= hot_hits
SEED ?= 1
SECONDS ?= 30
TRACE ?= 0
perfbench:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)

# The full formatted evaluation report at paper scale. Both files are
# committed: experiments_report.json is the §6 golden that ci.sh compares a
# fresh run against (`benchrunner -check`), and this target is how a change
# that moves the reproduction updates it, arguing why in CHANGES.md.
report:
	go run ./cmd/benchrunner -out experiments_report.txt -json experiments_report.json

examples:
	go run ./examples/quickstart
	go run ./examples/homes
	go run ./examples/products
	go run ./examples/workloadtuning
	go run ./examples/personalization
	go run ./examples/webclient

# Short fuzzing passes over the parser and CSV loader.
fuzz:
	go test ./internal/sqlparse -fuzz=FuzzParse -fuzztime=30s
	go test ./internal/sqlparse -fuzz=FuzzConditionOverlap -fuzztime=15s
	go test ./internal/relation -fuzz=FuzzReadCSV -fuzztime=30s
	go test ./internal/relation -fuzz=FuzzVectorizedSelect -fuzztime=30s

clean:
	rm -f test_output.txt bench_output.txt servebench_output.txt selectbench_output.txt warmbench_output.txt segmentbench_output.txt
	rm -f catlint catlint.json lint_output.txt
	rm -rf .bench_build
