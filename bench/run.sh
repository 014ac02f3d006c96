#!/usr/bin/env bash
# Builds the harness and runs it with the given arguments, from the
# root of the checkout. Everything the build writes (Go's build cache
# and temporary files, the binary) stays inside the checkout, under
# .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
