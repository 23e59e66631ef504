#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash diggbench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, per-run data directories, span dumps) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/diggbench" && go build -buildvcs=false -o "$out/diggbench" .)
exec "$out/diggbench" "$@"
