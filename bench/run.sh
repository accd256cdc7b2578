#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: the entry point BENCHMARK.json names. Everything the Go toolchain
# writes (build cache, temporary files, the binary) stays under
# .bench_build/, and everything the benchmark writes under bench/out/.
# Run it from the repository root.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/udibench" ./bench
exec "$build/udibench" "$@"
