#!/usr/bin/env bash
# Builds the benchmark and the specserve daemon from the checkout this script
# lives in, then runs the benchmark with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload paper-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binaries,
# toolchain settings) stays in .bench_build at the root of the checkout. Run
# from a copy holding only BENCHMARK.json and benchmark/, the build fails and
# the script exits nonzero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOENV=off
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

cd "$root/benchmark"
go build -o "$out/benchmark" .
go build -o "$out/specserve" specabsint/cmd/specserve
exec "$out/benchmark" -specserve "$out/specserve" "$@"
