#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (and with it
# the icilk module one directory up) from source, then runs it from the
# checkout root. Everything the Go toolchain writes stays under
# .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/icilk-benchmark" .)
cd "$root"
exec "$build/icilk-benchmark" "$@"
