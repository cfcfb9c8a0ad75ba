#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache and the benchmark's own files (span
# dumps, the async-jobs journal) all stay under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
