#!/usr/bin/env bash
# Builds mctopd and the benchmark program from this checkout's sources and
# runs the program with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-hit --seed 1 --seconds 10 --trace 0
#
# Everything built or written stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/mctopd" ./cmd/mctopd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -mctopd "$out/mctopd" "$@"
