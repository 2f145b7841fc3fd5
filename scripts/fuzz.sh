#!/bin/sh
# Fuzz smoke: a small budget per target (FUZZTIME, default 10s), enough to
# catch gross regressions in the robustness contracts (never panic, positioned
# errors) without turning the gate into a fuzzing campaign. FuzzLowerExpr holds
# the lowered interpreter to the tree-walking oracle on random expressions and
# subscripts, FuzzFoldMatchesRun the compile-time fold (ast.Fold, through
# constant propagation) to the value a simulated run leaves, FuzzSweepBody the
# swept runs of generated loop bodies to the same oracle (thirty seconds: the
# legality test is what stands between a sweep and a wrong answer), FuzzOwnerRun
# the owner-run closed form (dist.AxisMap.OwnerRun) to brute force over
# OwnerDim. Go allows one -fuzz target per invocation, so each runs separately.
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
go test -run='^$' -fuzz=FuzzAutoPriv -fuzztime="$fuzztime" .
