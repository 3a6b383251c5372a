#!/usr/bin/env bash
# Builds the benchmark and the mincutd daemon from this checkout, then
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload solve|allcuts|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build product, cache and
# scratch file goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
go build -o "$build/mincutd" ./cmd/mincutd
exec "$build/perfbench" -daemon "$build/mincutd" -workdir "$build" "$@"
