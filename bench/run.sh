#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the given
# arguments. The Go build cache, the binary and every file the benchmark
# writes stay under .bench_build/ in the checkout, so a run reads and writes
# nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/cleanbench" ./bench
exec "$build/cleanbench" "$@"
