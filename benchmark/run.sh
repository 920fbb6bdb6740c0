#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; the
# command of BENCHMARK.json. The Go build cache, the toolchain's scratch
# space and the binary all live under .bench_build/, so nothing outside
# the checkout is written. Arguments go to the program unchanged.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
