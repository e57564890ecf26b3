#!/usr/bin/env bash
# Builds and runs the COCA benchmark from a checkout of the repository.
#
#   bash cocabench/run.sh --workload decide|fleet|sweep --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, the binary and the
# traced runs' span exports all live under .bench_build/ in the checkout,
# so nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/cocabench" && go build -o "$build/cocabench" .)
exec "$build/cocabench" --trace-dir "$build/traces" "$@"
