#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build and
# runs it from the checkout's root. Everything the toolchain writes (build
# cache included) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/planarflow-bench" .)
cd "$root"
exec "$build/planarflow-bench" "$@"
