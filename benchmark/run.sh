#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build and the run write — the Go
# build cache, temporary files, the clusters' data directories — stays
# under .bench_build/ in the checkout. Run from the repository root:
#
#   bash benchmark/run.sh --workload fsl_weekly --seed 7 --seconds 12 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local

go build -o "$build/cdstore-benchmark" ./benchmark
exec "$build/cdstore-benchmark" "$@"
