#!/bin/sh
# Fuzz smoke: a small budget per target (FUZZTIME, default 10s), enough to
# catch gross regressions in the robustness contracts (never panic, positioned
# errors) without turning the gate into a fuzzing campaign. FuzzLowerExpr holds
# the lowered interpreter's one expression form — programs of register
# operations, nested where a subscript is read from memory — to the
# tree-walking oracle on random expressions and subscripts, values and errors
# alike, FuzzFoldMatchesRun the compile-time fold (ast.Fold, through constant
# propagation) to the value a simulated run leaves, FuzzSweepBody the kernels
# built from those programs, swept or run in iteration order, over generated
# loop bodies to the same oracle (thirty seconds: the
# legality test is what stands between a sweep and a wrong answer), FuzzOwnerRun
# the owner-run closed form (dist.AxisMap.OwnerRun) to brute force over
# OwnerDim, FuzzComputeStrip the machine's strip (leaped where rounding repeats)
# to its rounds of Compute, Send and Multicast, bit for bit (thirty seconds too:
# it is the legality test between a leap and a wrong clock). Go allows one
# -fuzz target per invocation, so each runs separately.
# scripts/check.sh and `make fuzz` both run this list.
set -eu
cd "$(dirname "$0")/.."

fuzztime="${FUZZTIME:-10s}"
go test -run='^$' -fuzz=FuzzLex -fuzztime="$fuzztime" ./internal/lexer
go test -run='^$' -fuzz=FuzzParse -fuzztime="$fuzztime" ./internal/parser
go test -run='^$' -fuzz=FuzzParseCrashes -fuzztime="$fuzztime" ./internal/fault
go test -run='^$' -fuzz=FuzzParseSlowdowns -fuzztime="$fuzztime" ./internal/fault
go test -run='^$' -fuzz=FuzzServeRequest -fuzztime="$fuzztime" ./internal/serve
go test -run='^$' -fuzz=FuzzLowerExpr -fuzztime="$fuzztime" ./internal/eval
go test -run='^$' -fuzz=FuzzFoldMatchesRun -fuzztime="$fuzztime" ./internal/eval
go test -run='^$' -fuzz=FuzzSweepBody -fuzztime=30s ./internal/eval
go test -run='^$' -fuzz=FuzzOwnerRun -fuzztime="$fuzztime" ./internal/dist
go test -run='^$' -fuzz=FuzzComputeStrip -fuzztime=30s ./internal/machine
go test -run='^$' -fuzz=FuzzAutoPriv -fuzztime="$fuzztime" .
