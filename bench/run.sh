#!/usr/bin/env bash
# Entry point of BENCHMARK.json: build bench/ocmxload from source into
# .bench_build/ at the root of the checkout, then run it with the driver's
# arguments. Everything the build writes (binary, Go build cache) stays
# inside the checkout. In a directory that holds only BENCHMARK.json and
# bench/ the build fails — the repository's packages are missing — and this
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$here" -o "$build/ocmxload" ./ocmxload >&2
exec "$build/ocmxload" "$@"
