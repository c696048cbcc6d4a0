#!/usr/bin/env bash
# Runs the flagship experiment benchmarks (E1/E11/E12), the exact-oracle
# fast path (BenchmarkOracle: the mode=exact speedup baseline), the engine
# microbenchmarks, the serving-layer benchmarks (BenchmarkService:
# cache-hit and cache-miss paths), the ingest and oracle layer
# benchmarks (graphio BenchmarkRead per wire format, graph
# BenchmarkBuild, oracle BenchmarkDecideSingleBlock; reported, never
# gated by bench_compare.sh), and the large-n family
# (BenchmarkLargeN), then writes a
# BENCH_<utc-timestamp>.json trajectory file in the repo root so future
# PRs can track the perf curve (scripts/bench_compare.sh gates regressions
# against the latest committed file).
#
# Usage: scripts/bench.sh [-short] [-cpuprofile FILE] [-memprofile FILE] [benchtime]
#   -short       CI mode: 1x benchtime and skip the 10^6-node LargeN sizes.
#                -short numbers are for the CI regression gate ONLY: one
#                iteration of the flagship benchmarks is too noisy to
#                serve as a baseline. Committed BENCH_*.json baselines
#                must come from a full run (no -short), and are committed
#                with `git add -f` past the .gitignore (DESIGN.md §5).
#   -cpuprofile  pass -cpuprofile to every go test invocation; since the
#                benchmark groups are separate test runs, the file
#                name is suffixed per group (FILE.E.prof, FILE.engine.prof,
#                FILE.graphio.prof, ..., FILE.largen.prof). Inspect with
#                `go tool pprof`.
#   -memprofile  same, for allocation profiles.
#   benchtime    go test -benchtime for the flagship/engine benchmarks
#                (default: 5x; the LargeN family always runs at 1x — each
#                iteration is tens of seconds to minutes, so one iteration
#                is the measurement).
# The profiling workflow is documented in DESIGN.md §5.
set -euo pipefail

cd "$(dirname "$0")/.."
SHORT=0
CPUPROF=""
MEMPROF=""
while :; do
    case "${1:-}" in
    -short) SHORT=1; shift ;;
    -cpuprofile) CPUPROF="$2"; shift 2 ;;
    -memprofile) MEMPROF="$2"; shift 2 ;;
    *) break ;;
    esac
done
BENCHTIME="${1:-5x}"
SHORTFLAG=""
if [ "$SHORT" = 1 ]; then
    BENCHTIME="${1:-1x}"
    SHORTFLAG="-short"
fi

# profflags GROUP -> per-group -cpuprofile/-memprofile arguments.
profflags() {
    local out=""
    [ -n "$CPUPROF" ] && out="$out -cpuprofile $CPUPROF.$1.prof"
    [ -n "$MEMPROF" ] && out="$out -memprofile $MEMPROF.$1.prof"
    echo "$out"
}
STAMP="$(date -u +%Y%m%dT%H%M%SZ)"
OUT="BENCH_${STAMP}.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench 'BenchmarkE1RoundsVsN|BenchmarkE11Baseline|BenchmarkE12Congestion|BenchmarkOracle' \
    -benchmem -benchtime "$BENCHTIME" $(profflags E) . | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkEngine' \
    -benchmem -benchtime "$BENCHTIME" $(profflags engine) ./internal/congest/ | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkService' \
    -benchmem -benchtime "$BENCHTIME" $(profflags service) ./internal/service/ | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkRead$' \
    -benchmem -benchtime "$BENCHTIME" $(profflags graphio) ./internal/graphio/ | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkBuild$' \
    -benchmem -benchtime "$BENCHTIME" $(profflags graph) ./internal/graph/ | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkDecideSingleBlock$' \
    -benchmem -benchtime "$BENCHTIME" $(profflags oracle) ./internal/oracle/ | tee -a "$RAW"
go test $SHORTFLAG -run '^$' -bench 'BenchmarkLargeN' -timeout 6h \
    -benchmem -benchtime 1x $(profflags largen) . | tee -a "$RAW"

awk -v stamp="$STAMP" '
BEGIN { printf "{\n  \"timestamp\": \"%s\",\n  \"benchmarks\": [\n", stamp }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; extra = ""
    for (i = 2; i <= NF - 1; i++) {
        u = $(i + 1)
        if (u == "ns/op") ns = $i
        else if (u == "B/op") bytes = $i
        else if (u == "allocs/op") allocs = $i
        else if ($i ~ /^[0-9.]+$/ && u ~ /^[a-zA-Z][a-zA-Z0-9_\/-]*$/) {
            # custom testing.B metrics, e.g. "congest-rounds"
            gsub(/"/, "", u)
            if (extra != "") extra = extra ", "
            extra = sprintf("%s\"%s\": %s", extra, u, $i)
        }
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns
    if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    if (extra != "")  printf ", %s", extra
    printf "}"
}
END { printf "\n  ]\n}\n" }
' "$RAW" > "$OUT"

echo "wrote $OUT"
