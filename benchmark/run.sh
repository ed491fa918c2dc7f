#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload chess_deep --seed 3 --seconds 20 --trace 0
#
# The binary, the Go build cache and every other file the toolchain
# writes stay under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/benchmark" build -o "$build/fim-benchmark" .
exec "$build/fim-benchmark" "$@"
