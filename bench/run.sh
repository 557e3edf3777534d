#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds the bench binary from
# source into .bench_build inside the checkout, then runs it with the
# arguments given. Everything the build and the run write — Go's build
# cache, temporary files, the grid's WAL directories — stays under
# .bench_build.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp"
(cd "$root/bench" && go build -o "$build/rpcv-bench" .)
cd "$root"
exec "$build/rpcv-bench" "$@"
