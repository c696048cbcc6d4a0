#!/usr/bin/env bash
# Builds the benchmark and planard from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload tester-planar --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and per-run scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/planard" ./cmd/planard
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --planard "$out/planard" --workdir "$out" "$@"
