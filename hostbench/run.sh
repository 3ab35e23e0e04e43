#!/usr/bin/env bash
# Builds the host-time benchmark from this checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash hostbench/run.sh --workload sim-cnn --seed 1 --seconds 36 --trace 0
#
# Build products, the Go cache and scratch files stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
