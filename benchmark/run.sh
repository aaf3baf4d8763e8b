#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Start it from the root of the checkout: bash benchmark/run.sh -workload ...
# Everything the build and the run write stays in .bench_build/ there: the
# binary, Go's build cache and configuration, and the run's temporary files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/asyncagree-bench" .)
exec "$build/asyncagree-bench" "$@"
