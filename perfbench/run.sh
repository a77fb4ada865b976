#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through:
#
#   bash perfbench/run.sh --workload rejoin --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under .bench_build/ in the current
# directory: the Go build cache, temp and config dirs, the binary, the
# nodes' data dirs and the span files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
out="$build/perfbench"
mkdir -p "$out" "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
