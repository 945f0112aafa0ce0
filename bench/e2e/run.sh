#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds ./bench/e2e from the checkout
# it is run in and runs it with the arguments given (the driver passes
# --workload, --seed, --seconds and --trace). Everything the build and
# the run write — Go's build cache, the binary, the tier directories, the
# trace files — stays under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

go build -o "$build/e2e" ./bench/e2e
exec "$build/e2e" -dir "$build/tiers" -out "$build/out/run.json" "$@"
