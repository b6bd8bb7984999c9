#!/bin/sh
# CI pipeline: every gate a change must pass, cheapest first. Run locally as
# `make ci` or `./ci.sh`; CI systems invoke it verbatim, so the local run and
# the CI run can never drift.
set -eu

step() { printf '\n== %s ==\n' "$*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet"
go vet ./...

step "go build"
go build ./...

step "perfbench module: go vet (its own go.mod, so the root ./... never compiles it)"
(cd perfbench && go vet ./...)

step "catlint (project-specific static analysis, DESIGN.md §11)"
go run ./cmd/catlint ./...

step "catlint self-check: seeded fixtures must fail, fixture tests must pass"
make lint-selfcheck

step "catlint perf gate: full-tree interprocedural run under 60s"
make lint-perf

step "go test"
go test ./...

step "race detector on the hot packages"
go test -race ./internal/category ./internal/relation ./internal/sqlparse \
    ./internal/treecache ./internal/server ./internal/resilience/... .

step "shard-parallel equivalence + concurrent append under race"
go test -race -count=1 -run 'TestShard|TestConcurrentCategorizeAppend' \
    ./internal/category ./internal/relation

step "segmented storage: seal/select races + golden equivalence under race"
go test -race -count=1 \
    -run 'TestSegment|TestConcurrentAppendSealSelect|TestAppendExtends|TestZone' \
    ./internal/category ./internal/relation

step "repair equivalence + warmer under race"
go test -race -count=1 -run 'TestRepair|TestServeRepair|TestLearnBatchServeRace|TestWarm' \
    ./internal/category .

step "warmbench smoke (repair + pre-warming under learn churn)"
go run ./cmd/catload -warmbench -rows 2000 -queries 1500 -n 60 -mix 8 -learn-every 15 -warm-topk 8

step "render memo: concurrent first hits on one entry under race"
go test -race -count=10 -run 'TestMemoConcurrentFirstHit' ./internal/server

step "chaos smoke (fault-injection suite)"
go test -race -count=1 -run 'TestChaos' ./internal/server

step "crash-recovery chaos (durable store under injected I/O faults, race)"
go test -race -count=1 -run 'TestCrashChaos|TestRecovery' ./internal/relation/durable

echo
echo "ci: all gates passed"
