#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root; every argument goes to the benchmark binary:
#
#   bash benchmark/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary all live in .bench_build/
# under the current directory, so nothing is written outside it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd benchmark && go build -o "$out/qei-benchmark" .)
exec "$out/qei-benchmark" "$@"
