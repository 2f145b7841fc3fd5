#!/bin/sh
# Benchmark-regression harness for the hot-path suite.
#
#   scripts/bench.sh            run the suite, append the next BENCH_<n>.json
#   scripts/bench.sh check      smoke-run and fail when a deterministic
#                               column moved against the last committed
#                               BENCH_<n>.json: sim-sec/run at all, allocs/op
#                               by more than 1% (ns/op is printed, not gated:
#                               timing claims are made with bench/ pairs)
#
# Environment knobs:
#   BENCH_PATTERN   benchmark regexp   (default: the Table + throughput suite)
#   BENCHTIME       go test -benchtime (default: 1s; check mode: 0.5s)
#   BENCH_COUNT     go test -count     (default: 3; the JSON keeps the
#                   per-benchmark minimum, the least-noisy estimate)
#   BENCH_OUT       output file        (default: next free BENCH_<n>.json)
set -eu
cd "$(dirname "$0")/.."

pattern="${BENCH_PATTERN:-^(BenchmarkTable|BenchmarkSimulatorThroughput|BenchmarkRecoveryOverhead|BenchmarkServe|BenchmarkCompileInfer|BenchmarkReducePrivatization)}"
mode="${1:-run}"

# last_baseline prints the highest-numbered BENCH_<n>.json known to git.
last_baseline() {
    git ls-files 'BENCH_*.json' | sed -n 's/^BENCH_\([0-9]*\)\.json$/\1/p' |
        sort -n | tail -1
}

run_suite() {
    go test -run '^$' -bench "$pattern" -benchmem \
        -benchtime "${BENCHTIME:-1s}" -count "${BENCH_COUNT:-3}" .
}

case "$mode" in
run)
    out="${BENCH_OUT:-}"
    if [ -z "$out" ]; then
        n=0
        while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
        out="BENCH_${n}.json"
    fi
    run_suite | tee /dev/stderr | go run ./cmd/benchjson emit -o "$out"
    ;;
check)
    n="$(last_baseline)"
    if [ -z "$n" ]; then
        echo "bench.sh: no committed BENCH_<n>.json baseline; run scripts/bench.sh and commit the result" >&2
        exit 1
    fi
    base="BENCH_${n}.json"
    tmp="$(mktemp)"
    trap 'rm -f "$tmp"' EXIT
    BENCHTIME="${BENCHTIME:-0.5s}" BENCH_COUNT="${BENCH_COUNT:-3}" run_suite |
        go run ./cmd/benchjson emit -o "$tmp"
    echo "bench.sh: comparing sim-sec/run and allocs/op against $base"
    go run ./cmd/benchjson compare "$base" "$tmp"
    ;;
*)
    echo "usage: scripts/bench.sh [run|check]" >&2
    exit 2
    ;;
esac
