#!/usr/bin/env bash
# Builds the benchmark (and with it the Canopus library it links) from source
# and runs it with the caller's arguments. Every build product — binary, Go
# build cache, compiler scratch — stays under .bench_build/ in the checkout,
# so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -C "$here" -o "$build/canopus-benchmark" .
cd "$root"
exec "$build/canopus-benchmark" "$@"
