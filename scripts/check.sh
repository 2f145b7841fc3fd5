#!/bin/sh
# Tier-1 gate: build, vet, race-detected tests, and a short-budget fuzz
# smoke over the front end. Mirrors `make check` for environments without
# make.
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test -race ./...

# The benchmark is a module of its own (bench/go.mod) that the commands above
# neither build nor test, yet it compiles against this module's internal
# packages: vet and smoke-test it here so an internal rename cannot break the
# benchmark unnoticed.
(cd bench && go vet . && go test .)

# Deprecated-API gate: the legacy execution surface (Compiled.Run,
# Compiled.RunConcurrent, Compiled.DiffBackends, FormatProfile, and the
# RunConfig/RunResult/ExecConfig/ExecResult types) was retired in favor of
# Execute/Diff + RunOptions. Fail if any such declaration reappears —
# matching declarations only, so prose mentions in doc comments stay legal.
if grep -rnE 'func \(c \*Compiled\) (Run|RunConcurrent|DiffBackends|FormatProfile)\(|\b(type|func) +(RunConfig|RunResult|ExecConfig|ExecResult|DiffBackends|FormatProfile)\b' \
    --include='*.go' .; then
    echo "check: deprecated execution API symbols reappeared (use Execute/Diff + RunOptions)" >&2
    exit 1
fi

# Oracle gate: execution runs the lowered form (internal/eval/lower.go); the
# tree-walking evaluator survives only as the test oracle. Fail if non-test
# code calls an Eval/EvalInt method again — that would be a second engine.
if grep -rnE '\.(Eval|EvalInt)\(' --include='*.go' . | grep -v '_test\.go:'; then
    echo "check: non-test code calls the tree-walking evaluator (Eval/EvalInt); it is the test oracle only" >&2
    exit 1
fi

# Fuzz smoke: a small budget per front-end target, enough to catch gross
# regressions in the robustness contracts (never panic, positioned errors)
# without turning the gate into a fuzzing campaign; FuzzLowerExpr holds the
# lowered interpreter to the tree-walking oracle on random expressions and
# subscripts. Go allows one -fuzz target per invocation, so each runs
# separately.
fuzztime="${FUZZTIME:-10s}"
go test -run=^$ -fuzz=FuzzLex -fuzztime="$fuzztime" ./internal/lexer
go test -run=^$ -fuzz=FuzzParse -fuzztime="$fuzztime" ./internal/parser
go test -run=^$ -fuzz=FuzzParseCrashes -fuzztime="$fuzztime" ./internal/fault
go test -run=^$ -fuzz=FuzzParseSlowdowns -fuzztime="$fuzztime" ./internal/fault
go test -run=^$ -fuzz=FuzzServeRequest -fuzztime="$fuzztime" ./internal/serve
go test -run=^$ -fuzz=FuzzLowerExpr -fuzztime="$fuzztime" ./internal/eval
go test -run=^$ -fuzz=FuzzAutoPriv -fuzztime="$fuzztime" .

# Chaos gate: every seeded fault plan (loss, duplication, slowdown,
# checkpointing, mid-loop fail-stop healed by checkpoint/restart, and the
# mix) physically injected into the concurrent executor under -race must
# agree bitwise with the simulator under the identical plan — results,
# fault-accounting statistics, and per-class trace event counts.
# CHAOS_SKIP=1 skips the gate (the matrix runs real retransmission timers,
# so it needs a few wall-clock seconds).
if [ "${CHAOS_SKIP:-0}" != "1" ]; then
    go test -race -run '^TestChaosMatrix$' -count=1 ./internal/exec
fi

# Golden gate: the -dump-after snapshots of the paper figures AND the
# simulator's rendered runtime trace of figure1 (testdata/traces/) must
# match the checked-in golden files byte for byte (determinism + stability
# of the pass pipeline's textual form and of the trace layer's event
# stream). `go test -update .` refreshes them after an intentional change.
go test -run '^TestGolden' .

# Bench-regression gate: smoke-run the hot-path benchmark suite and fail on
# >15% ns/op regression against the last committed BENCH_<n>.json baseline
# (scripts/bench.sh appends the next trajectory point after an intentional
# performance change; commit it to move the baseline). BENCH_SKIP=1 skips
# the gate (e.g. on heavily loaded machines where timings are meaningless).
if [ "${BENCH_SKIP:-0}" != "1" ]; then
    scripts/bench.sh check
fi

# Serve smoke: boot phpfserve on a random port and drive it with phpfload —
# zero 5xx under a sustained mixed burst (chaos + malformed fractions),
# real 429 shedding under forced overload, graceful drain on SIGTERM with
# the final metrics flushed. SERVE_SKIP=1 skips (scripts/serve_smoke.sh).
if [ "${SERVE_SKIP:-0}" != "1" ]; then
    scripts/serve_smoke.sh
fi

echo "check: OK"
