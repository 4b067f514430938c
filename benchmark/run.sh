#!/usr/bin/env bash
# Entry point named by BENCHMARK.json.  Builds the benchmark from source
# into .bench_build/ in the current checkout (Go's build cache and temp
# files are kept there too, so nothing is read or written outside it) and
# runs it with the arguments given, on one P whatever the caller's environment
# says (see README: a second P measures the host's scheduler).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/ledger" ./benchmark
unset GOMAXPROCS
exec "$build/ledger" "$@"
