#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (once; later runs hit
# the build cache) and runs it from the root of the checkout:
#
#   bash bench/run.sh --workload search_scan --seed 42 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout:
# .bench_build/ (binary, Go build cache) and bench/out/ (journals, trace).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config # where the go command keeps its counters
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/threedess-bench" .
exec "$build/threedess-bench" "$@"
