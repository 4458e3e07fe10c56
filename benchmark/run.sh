#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout, Go's caches included, so nothing is written elsewhere) and
# runs it from the checkout's root with the given arguments:
#
#   bash benchmark/run.sh --workload kv_single --seed 1 --seconds 10 --trace 0
#
# The first call in a checkout compiles the standard library into the
# local cache (about a minute); later calls reuse it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0
go build -C benchmark -o "$build/mvedsua-benchmark" .
exec "$build/mvedsua-benchmark" "$@"
