#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it,
# passing every argument through. The binary, the Go build cache and the
# toolchain's temporary files are kept inside the checkout (.bench_build/),
# so a run writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/go-cache"
export GOTMPDIR="$root/.bench_build/go-tmp"
mkdir -p "$GOCACHE" "$GOTMPDIR"
go build -C "$root/benchmark" -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
