#!/usr/bin/env bash
# Builds the rig from source and runs it with the arguments given, from the
# root of the checkout. Everything the build and the run write — the Go build
# cache, the binary, page and journal files — stays under .bench_build in the
# checkout (traced runs also write rig/out).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd rig && go build -o "$build/mldsrig" ./cmd/mldsrig)
exec "$build/mldsrig" "$@"
