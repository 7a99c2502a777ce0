#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload train-twitter --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, generated inputs and traced spans all live
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off
export PERFBENCH_COMMIT="${PERFBENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
