#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload hot_hits --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary and every run's
# scratch files stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
