#!/usr/bin/env bash
# Builds the server under test and the harness from this checkout, then
# runs the harness from the checkout's root. Everything it writes goes to
# .bench_build/ and bench/out/ there. Arguments pass through to eumbench.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's caches inside the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root" && go build -o "$build/eumdns" ./cmd/eumdns) >&2
(cd "$here" && go build -o "$build/eumbench" ./cmd/eumbench) >&2
cd "$root"
exec "$build/eumbench" -eumdns "$build/eumdns" -scratch "$build" -out "$here/out" "$@"
