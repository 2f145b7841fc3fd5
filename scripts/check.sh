#!/bin/sh
# Tier-1 gate, everything CI runs: build, vet, race-detected tests, the bench
# module's vet and smoke test, the "one definition" grep gates, a short-budget
# fuzz smoke, and the golden and serve gates. `make check` runs this script.
# Performance is not measured here: bench/ is the one instrument (bench/run.sh,
# which `make bench` runs).
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The race-detected tests include the chaos gate, TestChaosMatrix: every
# seeded fault plan (loss, duplication, slowdown, checkpointing, mid-loop
# fail-stop healed by checkpoint/restart, and the mix) on the concurrent
# executor must agree bitwise with the simulator under the identical plan —
# results, fault-accounting statistics, simulated time, and, traced, the
# planned messages per communication class and the per-statement time — and
# its concurrent trace must hold only Send, Recv and Wait events.
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

# One-schedule gate: which operation happens where is decided once, by the
# schedule in internal/eval (schedule.go), which alone reads the spmd plan's
# loop and statement annotations; the backends implement its operations
# (eval.Ops) and must not grow event methods or plan reads of their own again.
backends="$(ls internal/sim/*.go internal/exec/*.go | grep -v '_test\.go$')"
if grep -nE '\.(PrivatizedActive|VectorizedOp|InstanceOp)\(|\.(Hoisted|Combines|CopyOuts|PerInstance)\b|^func \((in \*interp|w \*worker)\) (LoopEntry|LoopExit|Statement|Redistribute)\(' $backends; then
    echo "check: a backend reads the communication plan or handles walk events itself; that is internal/eval/schedule.go's job" >&2
    exit 1
fi
# ...and who computes what is eval's decision too (State.InterpretFor): the
# concurrent executor evaluates no execution, owner, union or scalar set of
# its own, nor the iterations of a shrunk loop it walks. Nor does it resolve
# where an uncharged protocol move goes: the schedule names its sender and
# receivers (eval.Ops.Move), so exec has no Branch, HandOff or MergeRow
# operation, no rule of its own for who keeps an account (accounts(); that is
# eval.RunOptions.Keepers), and reads a scalar's holders only in chaos.go's
# recovery refetch, to check a value both ends restored.
if grep -nE '\.(ExecSet|OwnerSet|UnionSet|ScalarSet|LocalRange)\(' $(ls internal/exec/*.go | grep -v '_test\.go$'); then
    echo "check: internal/exec evaluates a set itself; which processor computes an instance is internal/eval's decision" >&2
    exit 1
fi
if grep -nE '^func \([a-z]+ \*[A-Za-z]+\) (Branch|HandOff|MergeRow)\(|(^|[^A-Za-z0-9_])accounts\(' $(ls internal/exec/*.go | grep -v '_test\.go$') ||
    awk 'FNR == 1 { fn = "" } /^func / { fn = $0 }
        /Holders\(/ && !(FILENAME ~ /\/chaos\.go$/ && fn ~ /\) refetchAll\(/) { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' $(ls internal/exec/*.go | grep -v '_test\.go$'); then
    echo "check: internal/exec decides where a protocol move goes (a Branch, HandOff or MergeRow method, accounts(), or Holders( outside the refetch check); the schedule resolves every move (eval.Ops.Move)" >&2
    exit 1
fi
# One-shrinking gate (DESIGN.md §12): which loops shrink is decided once, by
# spmd.ShrinkableLoops, which -dump spmd prints, and which iterations a
# processor walks once, by ShrinkInfo.LocalRange, which the walker reads; no
# other layer asks either.
if grep -rnE '\.(ShrinkableLoops|LocalRange)\(' --include='*.go' --exclude='*_test.go' . |
    grep -vE '^\./internal/(spmd|eval)/'; then
    echo "check: a loop's shrinking is read outside internal/spmd and internal/eval; ShrinkableLoops and LocalRange are their one definition" >&2
    exit 1
fi

# Privatized-IF gates (DESIGN.md §12, "Predicates"): a predicate's outcome goes
# only to the processors outside its set that walk its IF — those that keep an
# account, and the others unless they leave it aside — by the schedule's one
# destination rule for it (schedule.outcome, the one sender of a MoveOutcome),
# and whether a worker leaves an IF aside is decided once, by State.aside, the
# one function of internal/eval that reads the lowered verdict (asideOK;
# forProcessors lowers it). Fail when the rule no longer narrows the
# receivers to the account keepers where the others leave the IF aside, when
# an outcome is sent elsewhere, or when the decision is made elsewhere.
evalsrc="$(ls internal/eval/*.go | grep -v '_test\.go$')"
outcomefn="$(awk '/^func \(d \*schedule\) outcome\(/,/^}/' internal/eval/schedule.go)"
if ! printf '%s\n' "$outcomefn" | grep -q 'in = s\.keepers' ||
    ! printf '%s\n' "$outcomefn" | grep -q 'Move(MoveOutcome, set\.First(), in, set,' ||
    ! grep -q '^func (s \*State) aside(' internal/eval/walk.go ||
    awk 'FNR == 1 { fn = "" } /^func / { fn = $0 }
        /\.asideOK([^A-Za-z0-9_]|$)/ && fn !~ /\) (aside|forProcessors)\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        /MoveOutcome/ && fn != "" && fn !~ /\(d \*schedule\) outcome\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' $evalsrc; then
    echo "check: schedule.outcome no longer sends a predicate's outcome to the account keepers alone where the others leave its IF aside, an outcome is sent outside it, or internal/eval decides to leave an IF aside outside State.aside" >&2
    exit 1
fi

# Owner-computes gate (DESIGN.md §12): a worker computes its processor's
# instances and stores what the plan's messages carry; no worker checks a
# received value against one it computed itself, and no worker's whole image
# is compared with another's (the final memory is gathered from the owners,
# eval.Gather). Fail when the replicated verification comes back.
if grep -rnE 'func \([a-z]+ \*State\) Diff\(|\.st\.Diff\(' --include='*.go' --exclude='*_test.go' internal ||
    grep -nE '\bverify\(|hasVal' $(ls internal/exec/*.go | grep -v '_test\.go$'); then
    echo "check: replicated-value verification is back (State.Diff, verify or hasVal); workers store what messages carry and the final memory is gathered from owners" >&2
    exit 1
fi

# One-delivery gate (DESIGN.md §12, "How a value moves"): every value the
# concurrent executor moves goes through one primitive, worker.deliver (one
# sender, a destination rule, a tag; each receiver stores into its slot).
# Fail when a second multicast returns, or when non-test internal/exec calls
# the mailbox's send or recv outside deliver.
execsrc="$(ls internal/exec/*.go | grep -v '_test\.go$')"
if grep -nE '^func \(w \*worker\) multicast\(' $execsrc ||
    awk 'FNR == 1 { fn = "" } /^func / { fn = $0 }
        /(^|[^A-Za-z0-9_])w\.(send|recv)\(/ && fn !~ /\) deliver\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' $execsrc; then
    echo "check: a value moves outside worker.deliver in internal/exec (a second multicast, or send/recv called elsewhere); deliver is the one delivery primitive" >&2
    exit 1
fi

# ...and a collective reduction's value moves by hand-off alone (DESIGN.md
# §12, "The collective hand-off"): Reduce sends nothing, so its gather and
# result tags stay gone. A message is named by its tag only when a stall or a
# protocol error is reported (executor.name), so no call carries a label
# (a `what string` parameter) or a table of requirement labels built per run.
if grep -nE '\btagReduce(Result)?\b|\breqDesc\b|\bwhat string[,)]' $execsrc ||
    awk 'FNR == 1 { fn = "" } /^func / { fn = $0 }
        /w\.(deliver|deliverVar|exchange)\(/ && fn ~ /\(w \*worker\) Reduce\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' $execsrc; then
    echo "check: internal/exec has Reduce's gather or result tag, a send in Reduce, a per-call message label (what string) or reqDesc again; the hand-off moves a collective's value and a report names a message by its tag" >&2
    exit 1
fi

# One-accountant gate: the simulated machine is built and charged in
# internal/eval/account.go only (bench/, its own module, measures the
# machine's unit costs directly and is not scanned). The one strip operation,
# Machine.ComputeStrip — a quiet strip's listed guards, computes and
# per-instance transfers, round by round — is named by method, whatever holds
# the machine.
if grep -rnE 'machine\.New\(|\.M\.(Shift|Multicast|Exchange|Send|Compute|Reduce|TreeMerge|AllToAll|Checkpoint|Recover)\(|\.ComputeStrip\(' \
    --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=machine . |
    grep -v '^./internal/eval/account.go:'; then
    echo "check: the simulated machine is built or charged outside internal/eval/account.go" >&2
    exit 1
fi
# ...and a clock advances in internal/machine only: the loops that charge a
# quiet strip's listed processors (Machine.ComputeStrip) sit beside Compute,
# where slowdowns scale a charge and the recorder sees it, not in a caller
# that knows neither. Outside internal/machine the clock slice is only
# indexed or ranged over: bound to a name, passed on or sliced, it could be
# assigned through the alias.
if grep -rnE 'Clock\[[^]]*\][[:space:]]*([-+*/]?=([^=]|$)|\+\+|--)' \
    --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=machine . ||
    grep -rnE '\.Clock(\[[^]]*:|[^[A-Za-z0-9_]|$)' \
    --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=machine . |
    grep -vE 'range [A-Za-z_.]+\.Clock[[:space:]]*\{'; then
    echo "check: a processor clock is assigned, or the clock slice aliased, outside internal/machine" >&2
    exit 1
fi

# One-attribution gate: a traced run attributes its simulated time to
# statements in the accountant (Account.attribute), the same on both backends,
# and RunOptions.Trace is its one switch. Fail when the simulator-only profile
# returns (a RunOptions.Profile knob, or a profiler wrapper in internal/sim),
# or a deleted setting or helper does: trace.Options.Capacity (every ring holds
# DefaultCapacity events) or ir.Affine.IsConst, which nothing called.
if awk '/^type RunOptions struct/,/^}/' internal/eval/run.go | grep -E '^[[:space:]]+Profile[[:space:]]' ||
    grep -nE '^type profiler\b|^func \([a-z]+ \*profiler\)' $(ls internal/sim/*.go | grep -v '_test\.go$') ||
    awk '/^type Options struct/,/^}/' $(ls internal/trace/*.go | grep -v '_test\.go$') | grep -E '^[[:space:]]+Capacity[[:space:]]' ||
    grep -rnE '\) IsConst\(|\.IsConst\(' --include='*.go' internal/ir; then
    echo "check: RunOptions.Profile, a profiler in internal/sim, trace.Options.Capacity or ir.Affine.IsConst is back; a traced run's accountant attributes time to statements on both backends" >&2
    exit 1
fi

# One-multicast gate: a tree multicast's arithmetic — ceil(log2(k+1)) rounds
# for k destinations — is written once, in Machine.multicast, which
# Multicast runs over its listed destinations and ComputeStrip over a strip's
# listed transfer: a second copy could drift from the first by a bit.
if [ "$(grep -rnE --include='*.go' --exclude='*_test.go' 'ceilLog2\(.*\+[[:space:]]*1\)' internal/machine | wc -l)" -gt 1 ]; then
    echo "check: the multicast arithmetic (ceilLog2(k + 1)) is written more than once in internal/machine" >&2
    exit 1
fi

# One-walker gate: one traversal serves Walk and WalkResume (no tracked
# variant), and the labeled-CONTINUE scan of a goto exists once.
if grep -rn 'nodesTracked\|\.track\b' internal/eval ||
    [ "$(ls internal/eval/*.go | grep -v '_test\.go$' | xargs cat | grep -c 'Kind == ir.SContinue &&')" != 1 ]; then
    echo "check: internal/eval has a second walker (a tracked variant, or a second goto scan)" >&2
    exit 1
fi

# One-run-configuration gate: a run's settings and a run's outcome are each
# one struct, defined in internal/eval/run.go; the public API and both
# backends alias them (so nothing is copied field by field between layers) and
# one Validate checks them. Fail if a struct elsewhere declares one of the
# fields only those two have — names no wire-format or sweep-row struct uses —
# or if a Config/Result/RunOptions/Report name stops being an alias.
if grep -rnE '^[[:space:]]+([A-Za-z]+,[[:space:]]*)*(StallTimeout|TrafficMessages)(,[[:space:]]*[A-Za-z]+)*[[:space:]]+[][*.A-Za-z0-9]+[[:space:]]*(//.*)?$' \
    --include='*.go' --exclude='*_test.go' --exclude-dir=bench . |
    grep -v '^./internal/eval/run.go:'; then
    echo "check: a second copy of the run configuration or the run outcome (they are internal/eval/run.go's RunOptions and Report)" >&2
    exit 1
fi
for alias in 'phpf.go:RunOptions = eval.RunOptions' 'phpf.go:Report = eval.Report' \
    'internal/sim/sim.go:Config = eval.RunOptions' 'internal/sim/sim.go:Result = eval.Report' \
    'internal/exec/exec.go:Config = eval.RunOptions' 'internal/exec/exec.go:Result = eval.Report'; do
    if ! grep -qx "type ${alias#*:}" "${alias%%:*}"; then
        echo "check: ${alias%%:*} must declare 'type ${alias#*:}' (an alias of the one definition)" >&2
        exit 1
    fi
done

# One-answer gates (compile half, DESIGN.md §13): the owner pattern of a
# reference, the execution set of a statement, the hoisting-legality test, the
# privatization facts of a loop and the program's reductions each have ONE
# definition, which the selector (internal/core), the planner (internal/comm)
# and the generator (internal/spmd) call. Fail when a private copy reappears.
if grep -rnE '^func \(a \*analyzer\) (refPattern|execPattern|hoistableFrom)\(' internal/core; then
    echo "check: the selector has its own refPattern/execPattern/hoistableFrom again; they are Result.RefPattern, Result.ExecPattern and Result.Hoistable" >&2
    exit 1
fi
if grep -nE '^func (\([^)]*\) )?(execPattern|unionPattern|hoistable|ExecPattern)\(' internal/comm/*.go; then
    echo "check: internal/comm declares its own execution-set or hoisting test; the planner calls core.Result.ExecPattern and core.Result.Hoistable" >&2
    exit 1
fi
if [ "$(grep -rlE 'MayOverlapAcross\(' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=ir . | wc -l)" != 1 ]; then
    echo "check: the dependence test (ir.MayOverlapAcross) must be called from exactly one non-test file, the one hoisting-legality function" >&2
    exit 1
fi
if [ "$(grep -rnE 'FindReductions\(' --include='*.go' --exclude='*_test.go' --exclude-dir=bench . | grep -vc '^./internal/dataflow/reduction.go:[0-9]*:func FindReductions(')" != 1 ]; then
    echo "check: dataflow.FindReductions must have exactly one non-test call site (pass.Unit.Reductions, once per SSA build)" >&2
    exit 1
fi
corefiles="$(ls internal/core/*.go | grep -v '_test\.go$')"
if grep -nE '\.New\b|\.NoDeps|InferredNew|InferredLast' $corefiles ||
    grep -nE 'PrivInferStrict|\.Privatization\b' $corefiles | grep -vE '^internal/core/(types|pipeline)\.go:'; then
    echo "check: internal/core reads a privatization directive or the privatization mode itself; the autopriv pass applies the mode and core asks ir.Loop.Privatizes" >&2
    exit 1
fi

# One-alignment-step gate (DESIGN.md §13, "The selector: choose, then align or
# replicate"): both Table 1 strategies choose a target and hand it to the one
# align step, reductions are looked up in the reduceplan's index, and
# AlignLevel has no per-grid-dimension variant nothing calls. Fail when
# non-test internal/core keeps its own map of reductions (reductionOf), makes
# a scalar ScalarAligned outside align, or restrictGrid comes back.
if grep -nE '\breductionOf\b' $corefiles ||
    awk '/^func /{fn=$0} /([^=!:<>]=[^=]|Kind:)[^=]*ScalarAligned([^A-Za-z0-9_]|$)/ && fn !~ /\) align\(/ {print FILENAME":"FNR": "$0; bad=1} END{exit !bad}' $corefiles ||
    grep -rn 'restrictGrid' --include='*.go' --exclude-dir=bench .; then
    echo "check: internal/core maps reductions itself (reductionOf), aligns a scalar outside align, or restrictGrid is back; one path chooses, align aligns, ReducePlan.Of indexes reductions" >&2
    exit 1
fi

# One-meaning gates (DESIGN.md §14): the value of an expression, the rebuilding
# of its tree, the commutative-update matcher and the intrinsic table each
# have ONE definition — ast.Fold, ast.Rewrite, dataflow's matchUpdate,
# ast.Intrinsics — which the IR builder, the slot pass, constant propagation,
# the recognizers, the generator and the run time call. Fail when a private
# copy reappears.
if grep -nE 'case \*ast\.(BinOp|UnaryMinus|Not|Call)' internal/ir/ir.go internal/ir/slots.go internal/dataflow/constprop.go; then
    echo "check: the IR builder, the slot pass or constant propagation walks expression node kinds itself; trees are rebuilt by ast.Rewrite, visited by ast.Walk and evaluated by ast.Fold" >&2
    exit 1
fi
if grep -rnE '^func (\([^)]*\) )?(foldBin|foldCall|conditionalCarrierLoops)\b' \
    --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=ast .; then
    echo "check: a second compile-time evaluator (foldBin/foldCall) or carrier-loop scan reappeared; they are ast.Fold and dataflow's carrierLoops" >&2
    exit 1
fi
if [ "$(ls internal/dataflow/*.go | grep -v '_test\.go$' | xargs cat | grep -c '"max"')" != 1 ]; then
    echo "check: internal/dataflow must spell \"max\" on exactly one line (the update matcher's operator names); a second one is a second matcher" >&2
    exit 1
fi
if grep -rlE '"sqrt"' --include='*.go' --exclude='*_test.go' --exclude-dir=bench . |
    grep -vE '^\./internal/ast/[^/]*\.go$'; then
    echo "check: an intrinsic is named outside the one table (internal/ast); the run time numbers its entries (internal/eval's fns)" >&2
    exit 1
fi

# One-build gates (DESIGN.md §16): the front end builds each program once.
# The parser pulls its tokens from lexer.Stream and holds no token slice
# (lexer.Scan collects the stream for tests and bench/ alone), two
# expressions are compared by their trees (ast.Equal), never by printing
# both, and internal/ssa sorts with slices.SortFunc, not sort.Slice's
# reflection. Fail when non-test code compares ExprString results with == or
# !=, non-test internal/parser calls lexer.Scan (FuzzParse holds Parse to
# it), or non-test internal/ssa calls sort.Slice.
if grep -rnE 'ExprString\(([^()]|\([^()]*\))*\)[[:space:]]*[!=]=|[!=]=[[:space:]]*([A-Za-z_]+\.)?ExprString\(' \
    --include='*.go' --exclude='*_test.go' --exclude-dir=bench .; then
    echo "check: non-test code compares printed expressions (ExprString == / !=); compare trees with ast.Equal" >&2
    exit 1
fi
if grep -nE 'lexer\.Scan\(' $(ls internal/parser/*.go | grep -v '_test\.go$'); then
    echo "check: internal/parser calls lexer.Scan; the parser pulls its tokens from lexer.Stream and holds no token slice" >&2
    exit 1
fi
if grep -nE '\bsort\.Slice\(' $(ls internal/ssa/*.go | grep -v '_test\.go$'); then
    echo "check: non-test internal/ssa calls sort.Slice; it sorts with slices.SortFunc" >&2
    exit 1
fi

# Once-per-compile gates (DESIGN.md §16, "Once per compile"): SSA
# construction keeps its working sets in arrays by variable number, Block.ID
# or Value.ID, the liveness test of array privatization asks one reachability
# bitset per loop, and a Result's owner patterns are made once and shared.
# Fail when non-test internal/ssa declares a map keyed by variable or block,
# non-test internal/dataflow makes a map[*ir.Block]bool, or RefPattern,
# ScalarPattern or patternOf build a replicated pattern again.
if grep -nE 'map\[\*ir\.(Var|Block)\]' $(ls internal/ssa/*.go | grep -v '_test\.go$') ||
    grep -nE 'map\[\*ir\.Block\]bool' $(ls internal/dataflow/*.go | grep -v '_test\.go$') ||
    awk '/^func /{fn=$0} /dist\.ReplicatedPattern\(/ && fn ~ /\) (RefPattern|ScalarPattern|patternOf)\(/ {print FILENAME":"FNR": "$0; bad=1} END{exit !bad}' $corefiles; then
    echo "check: internal/ssa keys a map by variable or block, internal/dataflow makes a map[*ir.Block]bool, or RefPattern, ScalarPattern or patternOf build a replicated pattern; construction uses dense arrays, reachability one bitset per loop, and a Result shares its patterns" >&2
    exit 1
fi

# One-decision-printer gate (DESIGN.md §17): decision text is formatted by
# one package, internal/decide, from the decision record. Fail when a String
# method on a decision type of core or dataflow comes back, or when non-test
# Go names the deleted ReducePlanReport or the deleted -explain-priv flag.
if grep -rnE '^func \([a-z]+ \*?(ScalarMapping|ArrayPrivatization|PrivClass|PrivSummary|ReduceDecision)\) String\(' \
    --include='*.go' --exclude-dir=bench . ||
    grep -rnE 'ReducePlanReport|explain-priv' --include='*.go' --exclude='*_test.go' --exclude-dir=bench .; then
    echo "check: decision text is formatted outside internal/decide (a String method on a decision type, ReducePlanReport or -explain-priv); render it from the decide.Decisions record" >&2
    exit 1
fi

# One-operator gates (DESIGN.md §11, swept runs): an operator or intrinsic has
# ONE run-time definition, its element function — an intrinsic's in
# ast.Intrinsics, an operator's in internal/eval's table (lower.go's
# elemental) — from which the compile-time fold, the scalar pass and the
# strip kernel's loops (sweep.go) are all derived. So internal/eval names none of
# the math functions the intrinsics are, elemental has no intrinsic's name, and
# math.Mod is called once, by ast.Mod. And whether a quiet run is swept is
# decided by its kernel and its addresses alone: no environment variable, and
# no field of the run configuration, reaches the lowering, the walk or the
# sweep. Fail when a copy or a switch appears.
evalfiles="$(ls internal/eval/*.go | grep -v '_test\.go$')"
if grep -nE 'math\.(Mod|Sqrt|Exp|Abs)\b' $evalfiles ||
    awk '/^var elemental = /,/^}/' internal/eval/lower.go | grep -nE '"(abs|sqrt|exp|mod|max|min)"'; then
    echo "check: internal/eval defines an intrinsic again (a math function of one, or an intrinsic in elemental); its element function is its entry of ast.Intrinsics" >&2
    exit 1
fi
if [ "$(grep -rnE 'math\.Mod\(' --include='*.go' --exclude='*_test.go' --exclude-dir=bench . | wc -l)" != 1 ] ||
    ! awk '/^func Mod\(/,/^}/' internal/ast/fold.go | grep -q 'math\.Mod('; then
    echo "check: math.Mod must be called exactly once, by ast.Mod; every mod of the program is ast.Mod" >&2
    exit 1
fi
if grep -nE '"os"|\bos\.(Getenv|LookupEnv|Environ)\b' $evalfiles ||
    grep -nE 'RunOptions|\bcfg\b' internal/eval/lower.go internal/eval/sweep.go internal/eval/walk.go internal/eval/state.go; then
    echo "check: internal/eval reads the environment, or the run configuration reaches the lowering, the walk or the sweep; a quiet run is swept iff it has a kernel and its addresses allow it" >&2
    exit 1
fi

# One-form gate (DESIGN.md §14, "One meaning for an expression"): every
# expression lowers to one form, a program of register operations (sweep.go),
# which one scalar pass runs and the strip kernel runs over a strip. Fail when
# a closure form of an expression comes back (fexpr, a closure over *State
# returning a float64, evalCall) or a third switch over the operations does
# (case kConst: in more than the scalar pass and the strip kernel).
if grep -nE '\bfexpr\b|func\((s )?\*State\) float64|\bevalCall\b' $evalfiles ||
    [ "$(cat $evalfiles | grep -c 'case kConst:')" -gt 2 ]; then
    echo "check: internal/eval has a second expression form again (closures over *State, or a third switch over kop); every expression is a program the scalar pass runs" >&2
    exit 1
fi

# Lowered-run gate (DESIGN.md §11, "Opening a run"): an owner run is opened by
# evaluating each access once, at the run's first iteration; the far end's
# bounds and the per-iteration step follow from the coefficients lowering
# recorded (arrCode.open), and the pairs of accesses sweepable tests are listed
# once per kernel (code.kpairs). Fail when beginRun moves the loop index to
# the run's far end or divides an offset by n - 1, or when sweepable ranges
# over kernel operations again.
if ! grep -q '^func (w \*walker) beginRun(' internal/eval/walk.go ||
    ! grep -q '^func (s \*State) sweepable(' internal/eval/sweep.go ||
    awk '/^func \(w \*walker\) beginRun\(/,/^}/' internal/eval/walk.go |
        grep -nE 'indices\[slot\][[:space:]]*[-+*]?=([^=]|$)|/[[:space:]]*\(?n[[:space:]]*-[[:space:]]*1\b' ||
    awk '/^func \(s \*State\) sweepable\(/,/^}/' internal/eval/sweep.go | grep -nE '\bkop\b|range ops|\.kind\b'; then
    echo "check: beginRun evaluates an access at the run's far end or divides by n - 1, or sweepable scans kernel operations; a run opens from lowered coefficients (arrCode.open) and lowered pairs (code.kpairs)" >&2
    exit 1
fi

# One-message-per-transfer gates (DESIGN.md §12): a planned message is one
# physical message and one trace event, on both backends. Message
# vectorization is the compiler's placement decision, so the executor does not
# coalesce per-instance transfers at run time, the schedule has no operation to
# flush them, and a trace event never stands for several messages.
if grep -rnE 'openBatch|flushBatch|batchInstance' internal/exec; then
    echo "check: internal/exec batches per-instance transfers again; Transfer sends each element at once" >&2
    exit 1
fi
if grep -nE '\bBoundary\(' $evalfiles; then
    echo "check: eval.Ops or the schedule has a Boundary operation again; nothing is left in flight to flush" >&2
    exit 1
fi
if awk '/^type Event struct/,/^}/' $(ls internal/trace/*.go | grep -v '_test\.go$') | grep -E '^[[:space:]]+Count[[:space:]]'; then
    echo "check: trace.Event has a Count field again; every event is one event" >&2
    exit 1
fi

# Only-what-the-oracle-checks gates (DESIGN.md §12): on the concurrent backend
# a fault plan's loss, duplication and slowdown are charges of the replayed
# account, as on the simulator, because the differential oracle compares that
# account and nothing else. No lossy wire under the mailboxes, no wall-clock
# slowdown sleeps, no physical counters beside Stats; internal/exec starts
# exactly two kinds of goroutine, the workers and the watchdog, so a link
# goroutine cannot come back under a new name; and a worker panic or a stall
# ends the run, since the simulator models neither: no run-level heal, no
# bound on its retries, no save-and-restore of an account or a machine for it,
# and no HardCrashes mode that turns a scheduled crash into one.
if grep -rnwE 'MaxRestarts|HardRestarts|buildHeal|healState|AccountState|SaveState|RestoreState|HardCrashes' --include='*.go' --exclude='*_test.go' .; then
    echo "check: the run-level heal (its MaxRestarts/HardRestarts knobs, the account/machine save-and-restore it needs, or HardCrashes) is back; a worker panic or a stall ends the run" >&2
    exit 1
fi
if grep -rnE 'WallInjector|wireNet|sendWire|DropAttempt|sleepWall|\bWire[A-Z]' --include='*.go' --exclude='*_test.go' .; then
    echo "check: the lossy wire layer (or a Wire* counter) is back; loss, duplication and slowdown on exec are charges of the replayed account" >&2
    exit 1
fi
if [ "$(ls internal/exec/*.go | grep -v '_test\.go$' | xargs cat | grep -cE '^[[:space:]]*go[[:space:]]')" -gt 2 ]; then
    echo "check: non-test internal/exec has more than two go statements (the worker spawn and the watchdog)" >&2
    exit 1
fi

# Wall-time-trace gate (DESIGN.md §9): the concurrent trace holds only what
# the workers alone observe, in wall time — each planned message's Send and
# Recv, and each Wait — and the cost model's events are the simulator's trace.
# Fail when a copy of the model comes back: a machine event filter or clock
# override for the executor (FaultEventsOnly, a Now func field), a model event
# kind in non-test internal/exec, an event built outside worker.emit, or a
# machine given a recorder there. Nor may phpf.go forward the benchmark
# sources again (a func ...Source declaration but FigureSource, which bench/
# uses): callers call internal/programs.
machinesrc="$(ls internal/machine/*.go | grep -v '_test\.go$')"
if grep -nE '\bFaultEventsOnly\b|\bNow[[:space:]]+func\b' $machinesrc ||
    grep -nE 'trace\.(Compute|Reduce|Fault|Checkpoint|Restart)\b' $execsrc ||
    [ "$(cat $execsrc | grep -c 'trace\.Event{')" != 1 ] ||
    ! awk '/^func \(w \*worker\) emit\(/,/^}/' $execsrc | grep -q 'trace\.Event{' ||
    grep -nE '\.Rec([[:space:]]*,[^=]*)?[[:space:]]*=([^=]|$)' $execsrc ||
    grep -nE '^func [A-Za-z0-9_]+Source\(' phpf.go | grep -v 'func FigureSource('; then
    echo "check: the concurrent trace copies the cost model again (Machine.FaultEventsOnly or Now, a Compute/Reduce/Fault/Checkpoint/Restart event or a trace.Event outside worker.emit in internal/exec, a machine's Rec set there), or phpf.go forwards a benchmark source; exec traces Send, Recv and Wait in wall time" >&2
    exit 1
fi

# One-algebra gates (DESIGN.md §15): the difference of two affine forms, the
# restriction of a form to a nest, the substitution of loop bounds into one and
# the analysis of a subscript or a bound each have ONE definition, in
# internal/ir (Affine.Delta / Without / Inside, BoundDelta, Program.AnalyzeForms),
# which dist, core, comm, dataflow and the lowering half of eval call. Fail when
# a private copy reappears.
if grep -rnE '^func (\([^)]*\) )?(affineDelta|affineConstDiff|scanDelta|innerTerm|boundsContained|withinHoist|boundLin|reanalyzeSubscripts|analyzeSubscripts|subsVaryAffinelyWith|ShiftDelta|exactLimit)\(' \
    --include='*.go' --exclude='*_test.go' --exclude-dir=bench .; then
    echo "check: a private copy of the subscript algebra reappeared; it is ir.Affine's Delta/Without/Inside, ir.BoundDelta and ir.Program.AnalyzeForms" >&2
    exit 1
fi
if grep -rnE '\.Terms\[[A-Za-z]+\]\.Loop\.Index|range [A-Za-z.]+\.Terms' --include='*.go' --exclude='*_test.go' --exclude-dir=bench . |
    grep -vE '^\./internal/(ir/[^/]*|eval/lower)\.go:'; then
    echo "check: the terms of an affine form are matched or walked outside internal/ir (and eval's lowering of a form to code); ask ir.Affine" >&2
    exit 1
fi
if grep -rnE 'AnalyzeAffine\([^,]*\.(Lo|Hi|Step)\b' --include='*.go' --exclude-dir=bench . | grep -v '^\./internal/ir/'; then
    echo "check: a loop's bounds are analysed outside internal/ir; they are ir.Loop.Lo, Hi and StepConst, filled by ir.Program.AnalyzeForms" >&2
    exit 1
fi
if grep -rnE '\.Step\.\(\*ast\.(IntConst|UnaryMinus)\)' --include='*.go' --exclude-dir=bench .; then
    echo "check: a loop's step is read off its syntax tree; the constant step is ir.Loop.StepConst" >&2
    exit 1
fi
if grep -rnE 'dist\.(AxisMap|DimPattern)\{[A-Za-z]+:' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=dist . |
    grep -vE 'DimPattern\{(Repl: true|AxisMap: )'; then
    echo "check: a distributed axis is rebuilt field by field outside internal/dist; copy the dist.AxisMap value (DimPattern embeds it)" >&2
    exit 1
fi
if grep -rnE '= *(int64\(1\)|1) *<< *53' --include='*.go' --exclude='*_test.go' --exclude-dir=bench . | grep -v '^\./internal/ast/fold.go:'; then
    echo "check: the integer bound 2^53 is declared outside internal/ast/fold.go; it is ast.MaxExact" >&2
    exit 1
fi

# One-pipeline gates (DESIGN.md §8): the compile order is the list
# core.Pipeline declares and pass.Run executes — no fact database beside it —
# an execution is recorded in one place, a plan is indexed once, and the
# lose-retransmit-back-off loop of the machine is written once. Fail when a
# deleted idea returns.
if grep -nE '^type Fact\b|\b(Requires|Provides|Invalidates):|\.Invalidate\(' \
    $(ls internal/pass/*.go internal/core/*.go | grep -v '_test\.go$'); then
    echo "check: the fact database is back (type Fact, a Requires/Provides/Invalidates declaration or Unit.Invalidate); the schedule is core.Pipeline's list and a structure is valid when it is non-nil" >&2
    exit 1
fi
if grep -rnE 'PassStat\{' --include='*.go' --exclude='*_test.go' --exclude-dir=bench . | grep -v '^\./internal/pass/'; then
    echo "check: a pass execution is recorded by hand outside internal/pass; time the step through CompileProfile.Time" >&2
    exit 1
fi
if grep -nE 'map\[\*ir\.(Stmt\]\*StmtPlan|Loop\]\*LoopPlan)' internal/spmd/*.go; then
    echo "check: internal/spmd keeps a second, pointer-keyed index of the plans; Program.Stmts and Program.Loops are the dense slices PlanOf and LoopPlanOf read" >&2
    exit 1
fi
if [ "$(ls internal/machine/*.go | grep -v '_test\.go$' | xargs cat | grep -c 'DropMessage(')" != 1 ]; then
    echo "check: internal/machine must draw Fault.DropMessage() on exactly one line (Machine.retransmits); a second one is a second retransmission loop" >&2
    exit 1
fi

# Fuzz smoke: every fuzz target for a short budget (FUZZTIME, default 10s);
# the one list is scripts/fuzz.sh, which `make fuzz` runs too.
sh scripts/fuzz.sh

# Golden gate: the -dump-after snapshots of the paper figures, the
# simulator's rendered runtime trace of figure1 (testdata/traces/) and the
# paper's evaluation cells at full precision (testdata/tables/paper_cells.golden)
# must match the checked-in golden files byte for byte (determinism + stability
# of the pass pipeline's textual form, of the trace layer's event stream and of
# the cost model). `go test -update .` refreshes them after an intentional change.
go test -run '^TestGolden' .

# One-instrument gate (DESIGN.md §9): performance is measured by bench/ alone,
# and the simulated times of the paper's cells are pinned by TestGoldenPaperCells.
# Fail when the second instrument comes back: its JSON tool or runner script,
# a benchmark function in the root package, or an environment knob of the
# BENCH_ family in the scripts, the Makefile or CI.
if [ -e cmd/benchjson ] || [ -e scripts/bench.sh ] ||
    grep -nE '^func Benchmark' ./*_test.go ||
    grep -rnE 'BENCH_[A-Z]+' scripts Makefile .github; then
    echo "check: a second benchmark instrument reappeared (cmd/benchjson, scripts/bench.sh, a root-package Benchmark or a BENCH_ knob); bench/ is the one instrument" >&2
    exit 1
fi

# Serve smoke: boot phpfserve on a random port and drive it with phpfload —
# zero 5xx under a sustained mixed burst (chaos + malformed fractions),
# real 429 shedding under forced overload, graceful drain on SIGTERM with
# the final metrics flushed. SERVE_SKIP=1 skips (scripts/serve_smoke.sh).
if [ "${SERVE_SKIP:-0}" != "1" ]; then
    scripts/serve_smoke.sh
fi

echo "check: OK"
