#!/usr/bin/env bash
# Bench-regression gate: compares a fresh BENCH_*.json (from
# scripts/bench.sh) against the latest *committed* BENCH_*.json and fails
# when any flagship (E1/E11/E12), Engine, Service/cache-hit, or the
# CI-sized LargeN planar benchmarks (n10000, n100000) regressed by more
# than the threshold in ns/op. New benchmarks (present only in the fresh
# file), gated baseline rows missing from the fresh file (deleted
# benchmarks, listed as [removed]), and the 10^6-node LargeN sizes (minutes-long single iterations,
# skipped in -short mode) are reported but never gate; the gated LargeN
# sizes are single iterations too, so their threshold rides on the
# shared BENCH_REGRESSION_THRESHOLD. Committed baselines must come from
# full (non -short) bench.sh runs — see the bench.sh header.
#
# Usage: scripts/bench_compare.sh [fresh.json] [baseline.json]
#   fresh.json     defaults to the newest BENCH_*.json in the repo root
#   baseline.json  defaults to the newest git-tracked BENCH_*.json
set -euo pipefail

cd "$(dirname "$0")/.."
THRESHOLD="${BENCH_REGRESSION_THRESHOLD:-25}"

fresh="${1:-}"
base="${2:-}"
if [ -z "$base" ]; then
    base="$(git ls-files 'BENCH_*.json' | sort | tail -n1)"
fi
if [ -z "$base" ]; then
    echo "bench_compare: no committed BENCH_*.json baseline found" >&2
    exit 2
fi
if [ -z "$fresh" ]; then
    fresh="$(ls BENCH_*.json 2>/dev/null | sort | tail -n1)"
fi
if [ -z "$fresh" ] || [ ! -f "$fresh" ]; then
    echo "bench_compare: no fresh BENCH_*.json found (run scripts/bench.sh first)" >&2
    exit 2
fi
if [ "$fresh" = "$base" ]; then
    echo "bench_compare: fresh file $fresh is the committed baseline itself" >&2
    exit 2
fi

# Extract "name ns_per_op" pairs from the trajectory JSON. Layout-agnostic
# (bench.sh writes one object per line; older committed files are
# pretty-printed): flatten, then match adjacent name/ns_per_op fields.
extract() {
    tr -d '\n' < "$1" \
        | grep -o '"name"[[:space:]]*:[[:space:]]*"[^"]*"[[:space:]]*,[[:space:]]*"ns_per_op"[[:space:]]*:[[:space:]]*[0-9.]*' \
        | sed 's/"name"[[:space:]]*:[[:space:]]*"//; s/"[[:space:]]*,[[:space:]]*"ns_per_op"[[:space:]]*:[[:space:]]*/ /'
}

# is_gated reports whether a benchmark row is under the regression gate.
is_gated() {
    case "$1" in
        BenchmarkE1RoundsVsN*|BenchmarkE11Baseline*|BenchmarkE12Congestion*|BenchmarkEngine*) return 0 ;;
        BenchmarkLargeN/planar-n10000|BenchmarkLargeN/planar-n100000) return 0 ;;
        BenchmarkService/cache-hit) return 0 ;;
    esac
    return 1
}

echo "bench_compare: $fresh vs baseline $base (gate: >${THRESHOLD}% ns/op on E1/E11/E12/Engine/Service-cache-hit/LargeN-n10000/LargeN-n100000)"
base_pairs="$(extract "$base")" || base_pairs=""
fresh_pairs="$(extract "$fresh")" || fresh_pairs=""
fail=0
compared=0
while read -r name ns; do
    gated=0
    is_gated "$name" && gated=1
    bns="$(printf '%s\n' "$base_pairs" | awk -v n="$name" '$1 == n { print $2; exit }')" || bns=""
    if [ -z "$bns" ]; then
        printf '  %-55s %16.0f ns/op (new, no baseline)\n' "$name" "$ns"
        continue
    fi
    [ "$gated" = 1 ] && compared=$((compared + 1))
    awk -v n="$name" -v f="$ns" -v b="$bns" -v t="$THRESHOLD" -v g="$gated" 'BEGIN {
        pct = (f - b) / b * 100
        status = g ? "ok" : "info"
        if (g && pct > t) status = "REGRESSION"
        printf "  %-55s %14.0f -> %14.0f ns/op (%+6.1f%%) [%s]\n", n, b, f, pct, status
        exit (g && pct > t) ? 1 : 0
    }' || fail=1
done <<< "$fresh_pairs"

# A gated baseline row that the fresh run lacks belongs to a deleted
# benchmark: list it so the deletion is visible, but never fail on it.
while read -r name ns; do
    [ -n "$name" ] && is_gated "$name" || continue
    if ! printf '%s\n' "$fresh_pairs" | awk -v n="$name" '$1 == n { found = 1 } END { exit !found }'; then
        printf '  %-55s %14.0f ns/op (absent from the fresh run) [removed]\n' "$name" "$ns"
    fi
done <<< "$base_pairs"

# Fail closed: a gate that compared nothing (unparseable file, renamed
# benchmarks) must not pass silently.
if [ "$compared" = 0 ]; then
    echo "bench_compare: FAIL — no gated benchmark could be compared (bad bench output or renamed benchmarks?)" >&2
    exit 2
fi
if [ "$fail" = 1 ]; then
    echo "bench_compare: FAIL — gated benchmark regressed more than ${THRESHOLD}% ns/op" >&2
    exit 1
fi
echo "bench_compare: OK (${compared} gated benchmarks compared)"
