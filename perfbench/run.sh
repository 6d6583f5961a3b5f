#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it, e.g.
#
#   bash perfbench/run.sh --workload fast-tier --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary and the Go build cache stay
# under .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
