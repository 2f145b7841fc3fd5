// Package core implements the paper's primary contribution: selecting the
// mapping of privatized scalar and array variables under data-driven
// (owner-computes) parallelization.
//
// For each scalar definition the compiler chooses among replication
// (default), alignment with a consumer reference, alignment with a producer
// reference, and privatization without alignment (§2); scalar reductions get
// the special treatment of §2.3; privatizable arrays are aligned, fully or
// partially (partition some grid dimensions, privatize the others, §3); and
// control flow statements are privatized when they cannot transfer control
// out of their loop (§4).
package core

import (
	"phpf/internal/dataflow"
	"phpf/internal/decide"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/pass"
	"phpf/internal/ssa"
)

// ScalarStrategy selects how aggressively scalar mappings are chosen. The
// three levels correspond to the compiler versions measured in Table 1.
type ScalarStrategy int

const (
	// ScalarsReplicated: no privatization; every scalar is replicated.
	ScalarsReplicated ScalarStrategy = iota
	// ScalarsProducerAligned: privatize, but always align each definition
	// with a partitioned producer (rhs) reference when one exists.
	ScalarsProducerAligned
	// ScalarsSelected: the full §2.2 algorithm (consumer preferred unless
	// it induces inner-loop communication; privatization without alignment
	// when the rhs is replicated).
	ScalarsSelected
)

func (s ScalarStrategy) String() string {
	switch s {
	case ScalarsReplicated:
		return "replicated"
	case ScalarsProducerAligned:
		return "producer"
	case ScalarsSelected:
		return "selected"
	}
	return "?"
}

// PrivMode selects where privatization facts come from.
type PrivMode int

const (
	// PrivDirectives: privatization facts come only from directives (NEW
	// clauses; NODEPS-implied candidates). The inference pass still runs
	// and classifies, but inserts nothing — the paper's prototype behavior.
	PrivDirectives PrivMode = iota
	// PrivInfer: the autopriv pass additionally inserts every privatization
	// it can prove (inferred NEW for arrays, lastprivate for scalars) and
	// reports what it declined. Directives it already covers are respected,
	// not re-derived. The default.
	PrivInfer
	// PrivInferStrict: inference is the only source of privatization facts;
	// NEW clauses and NODEPS-implied candidates never reach the loops' facts
	// the mapping pass reads (an oracle for how much the directives assert
	// beyond what the analysis proves).
	PrivInferStrict
)

func (m PrivMode) String() string {
	switch m {
	case PrivDirectives:
		return "directives"
	case PrivInfer:
		return "infer"
	case PrivInferStrict:
		return "infer-strict"
	}
	return "?"
}

// ParsePrivMode parses the -privatize spellings.
func ParsePrivMode(s string) (PrivMode, bool) {
	switch s {
	case "directives":
		return PrivDirectives, true
	case "infer":
		return PrivInfer, true
	case "infer-strict":
		return PrivInferStrict, true
	}
	return PrivDirectives, false
}

// ReduceMode selects the runtime reduction strategy — how recognized
// reductions execute, not how they are mapped (the §2.3 static mapping is
// compiled either way, so one compiled program serves every mode).
type ReduceMode int

const (
	// ReduceAuto: privatize every reduction the reduceplan classified
	// privatizable; the rest stay collective. The default.
	ReduceAuto ReduceMode = iota
	// ReduceCollective: every reduction pays the global collective at the
	// carried loop's exit (the differential reference).
	ReduceCollective
	// ReducePrivatize: require privatized execution; running a program with
	// a recognized reduction the plan could not privatize is a configuration
	// error (E005), surfaced identically by both backends.
	ReducePrivatize
)

func (m ReduceMode) String() string {
	switch m {
	case ReduceAuto:
		return "auto"
	case ReduceCollective:
		return "collective"
	case ReducePrivatize:
		return "privatize"
	}
	return "?"
}

// ParseReduceMode parses the -reduce spellings.
func ParseReduceMode(s string) (ReduceMode, bool) {
	switch s {
	case "auto", "":
		return ReduceAuto, true
	case "collective":
		return ReduceCollective, true
	case "privatize":
		return ReducePrivatize, true
	}
	return ReduceAuto, false
}

// Options controls which optimizations the mapping pass applies.
type Options struct {
	Scalars ScalarStrategy
	// AlignReductions enables the §2.3 reduction-variable mapping
	// (replicate over reduction grid dims, align elsewhere). When false,
	// reduction scalars fall back to the scalar strategy (Table 2's
	// "Default" column replicates them).
	AlignReductions bool
	// PrivatizeArrays enables §3.1 array privatization from NEW clauses.
	PrivatizeArrays bool
	// Privatization selects where privatization facts come from; the zero
	// value (PrivDirectives) reproduces the paper's directive-driven
	// prototype, DefaultOptions selects PrivInfer.
	Privatization PrivMode
	// PartialPrivatization enables §3.2 (partition + privatize) when full
	// privatization is invalid.
	PartialPrivatization bool
	// PrivatizeControlFlow enables §4.
	PrivatizeControlFlow bool
	// DisableVectorization keeps every communication at its statement
	// (ablation: quantifies what message vectorization contributes; the
	// paper's cost model is "guided by ... the placement of communication,
	// and hence, optimizations like message vectorization").
	DisableVectorization bool
	// DisableDependenceTest makes hoisting maximally conservative: any
	// write to an array inside a loop defeats vectorizing reads of it out
	// of that loop, even provably independent ones (ablation: shows what
	// the Banerjee-style test buys, e.g. DGEFA's pivot-column broadcast).
	DisableDependenceTest bool

	// Verify runs the IR/SSA/mapping verifier between every pipeline pass
	// and fails compilation on any invariant violation. Always on under
	// `go test`; opt in here for production runs.
	Verify bool
	// DumpAfter names a pipeline pass (one of PassNames) whose post-state
	// snapshot is captured into Result.Profile.Dumps (empty: no snapshots).
	DumpAfter string
}

// DefaultOptions enables everything (the "selected alignment" compiler).
func DefaultOptions() Options {
	return Options{
		Scalars:              ScalarsSelected,
		AlignReductions:      true,
		PrivatizeArrays:      true,
		Privatization:        PrivInfer,
		PartialPrivatization: true,
		PrivatizeControlFlow: true,
	}
}

// ScalarKind is the chosen mapping for one scalar definition.
type ScalarKind int

const (
	// ScalarReplicated: every processor computes and holds the value.
	ScalarReplicated ScalarKind = iota
	// ScalarAligned: owned by the owner of the Target reference.
	ScalarAligned
	// ScalarNoAlign: privatized without alignment — computed by whichever
	// processors execute the iteration, from replicated data; treated as
	// replicated by communication analysis.
	ScalarNoAlign
	// ScalarReduction: §2.3 mapping — replicated across the reduction grid
	// dimensions, aligned with the reduction data reference elsewhere.
	ScalarReduction
)

func (k ScalarKind) String() string {
	switch k {
	case ScalarReplicated:
		return "replicated"
	case ScalarAligned:
		return "aligned"
	case ScalarNoAlign:
		return "private-noalign"
	case ScalarReduction:
		return "reduction"
	}
	return "?"
}

// ScalarMapping is the mapping decision for one SSA definition.
type ScalarMapping struct {
	Def  *ssa.Value
	Kind ScalarKind

	// Target is the alignment target reference (ScalarAligned and, for the
	// non-reduction grid dimensions, ScalarReduction).
	Target *ir.Ref
	// TargetIsConsumer records whether Target was a consumer reference.
	TargetIsConsumer bool
	// PrivLoop is the loop with respect to which the value is privatized.
	PrivLoop *ir.Loop
	// LastPrivate marks an inferred lastprivate privatization: the value is
	// private within PrivLoop and the final iteration's value is copied out
	// (broadcast from its owner) at loop exit for the uses that follow.
	// Uses outside PrivLoop therefore see the value as replicated.
	LastPrivate bool

	// Red is the recognized reduction (ScalarReduction).
	Red *dataflow.Reduction
	// RedGridDims lists the grid dimensions across which the reduction
	// combines (the scalar is replicated over them).
	RedGridDims []int

	// Pattern is the symbolic owner of the value.
	Pattern dist.OwnerPattern

	// SelectedConsumer records the consumer reference the traversal chose,
	// even when the final decision was privatization without alignment
	// (diagnostic; mirrors the paper's Figure 2 discussion).
	SelectedConsumer *ir.Ref
	// ForcedReplicated records that some reached use required the dummy
	// replicated reference (loop bound or broadcast subscript).
	ForcedReplicated bool
}

// ArrayPrivatization is the §3 decision for one array with respect to one
// loop.
type ArrayPrivatization struct {
	Var    *ir.Var
	Loop   *ir.Loop // the INDEPENDENT/NEW (or NODEPS) loop
	Target *ir.Ref  // alignment target reference
	// Partial is true when the array is partitioned in some grid dims and
	// privatized in the others (§3.2).
	Partial bool
	// PrivGrid[d] is true when grid dimension d is privatized: the array's
	// coordinate there follows the target reference's coordinate.
	PrivGrid []bool
	// Axes[dim] maps partitioned array dimensions (zero value = collapsed).
	Axes []dist.AxisMap
}

// PatternOf computes the owner pattern of a reference to the privatized
// array: partitioned dims from Axes, privatized grid dims following the
// target's pattern.
func (ap *ArrayPrivatization) PatternOf(g *dist.Grid, ref *ir.Ref, targetPat dist.OwnerPattern) dist.OwnerPattern {
	p := dist.ReplicatedPattern(g)
	for d := 0; d < g.Rank(); d++ {
		if ap.PrivGrid[d] {
			p.Dims[d] = targetPat.Dims[d]
		}
	}
	for dim, ax := range ap.Axes {
		if ax.Distributed {
			p.Dims[ax.GridDim] = dist.DimPattern{AxisMap: ax, Sub: ref.Subs[dim]}
		}
	}
	return p
}

// CtrlMapping is the §4 decision for one control flow statement.
type CtrlMapping struct {
	Stmt *ir.Stmt
	// Privatized: the statement does not contribute a computation
	// partitioning guard; it executes on the union of processors executing
	// the other statements of the iteration, and its predicate data flows
	// only to that union. Non-privatized control statements execute on all
	// processors.
	Privatized bool
}

// Result is the complete set of mapping decisions for a program.
type Result struct {
	Prog    *ir.Program
	SSA     *ssa.SSA
	Mapping *dist.Mapping
	Opts    Options

	// Scalars maps each scalar SSA definition to its mapping decision.
	Scalars map[*ssa.Value]*ScalarMapping
	// Arrays maps privatized arrays to their privatization.
	Arrays map[*ir.Var]*ArrayPrivatization
	// Ctrl maps SIf/SIfGoto statements to their §4 decision.
	Ctrl map[*ir.Stmt]*CtrlMapping

	Inductions []*dataflow.Induction
	Reductions []*dataflow.Reduction

	// ReducePlan is the reduceplan pass's collective-vs-privatized
	// classification of every recognized reduction (over the same
	// *Reduction values as Reductions).
	ReducePlan *dataflow.ReducePlan

	// Priv is the autopriv pass's classification of every candidate
	// (loop, variable) pair — what was privatized, what was declined and
	// why.
	Priv *dataflow.PrivSummary

	// Diags lists the non-fatal problems the analyses degraded around
	// (skipped directives, alignment fallbacks), with source positions.
	Diags []Diagnostic

	// Profile is the per-pass instrumentation of the pipeline run that
	// produced this result.
	Profile *pass.CompileProfile

	// pats holds the owner pattern of each array reference asked about
	// during the compile, under its array's mapping, by Ref.ID (nil Dims: not
	// asked yet), and repl the replicated pattern: both are shared by every
	// answer, so never written into. The compile is single-threaded, so
	// RefPattern fills pats as it is asked, and the mapping is fixed before
	// Analyze makes it; spmd.Generate, the compile's last step, drops it
	// (DropPatterns), because a Result outlives its compile (serve keeps 128).
	pats []dist.OwnerPattern
	repl dist.OwnerPattern
}

// DropPatterns lets go of pats when the compile ends; RefPattern builds what
// is asked afterwards afresh and writes nothing.
func (r *Result) DropPatterns() { r.pats = nil }

// Decisions records the final decisions by stable names, each target with
// the selector's own alignLevel of it. Nothing on the compile path builds it.
func (r *Result) Decisions() *decide.Decisions {
	d := &decide.Decisions{Grid: r.Mapping.Grid.String(), Privatization: r.Opts.Privatization.String()}
	add := func(e decide.Entry, target *ir.Ref) {
		if target != nil {
			e.Target, e.AlignLevel = decide.RefOf(target), alignLevel(r.Mapping, target)
		}
		d.Entries = append(d.Entries, e)
	}
	for _, v := range r.SSA.Values {
		m := r.Scalars[v]
		if m == nil {
			continue
		}
		e := decide.Entry{Kind: decide.Scalar, Name: v.String(), Decision: m.Kind.String(),
			Loop: decide.LoopOf(m.PrivLoop), LastPrivate: m.LastPrivate, RedGridDims: m.RedGridDims,
			SelectedConsumer: decide.RefOf(m.SelectedConsumer), ForcedReplicated: m.ForcedReplicated}
		switch {
		case m.Target == nil:
		case m.Kind == ScalarReduction:
			e.Role = "reduction-data"
		case m.TargetIsConsumer:
			e.Role = "consumer"
		default:
			e.Role = "producer"
		}
		add(e, m.Target)
	}
	for _, v := range r.Prog.VarList {
		if ap := r.Arrays[v]; ap != nil {
			mode := "full"
			if ap.Partial {
				mode = "partial"
			}
			add(decide.Entry{Kind: decide.Array, Name: v.Name, Decision: mode, Loop: decide.LoopOf(ap.Loop)}, ap.Target)
		}
	}
	for _, st := range r.Prog.Stmts {
		if st.Kind == ir.SIf || st.Kind == ir.SIfGoto {
			state := "executed on all processors"
			if r.CtrlPrivatized(st) {
				state = "privatized"
			}
			add(decide.Entry{Kind: decide.Control, Name: decide.Label(st), Decision: state, Line: st.Line}, nil)
		}
	}
	for _, iv := range r.Inductions {
		add(decide.Entry{Kind: decide.Induction, Name: iv.Var.Name, Stmt: decide.Label(iv.Stmt),
			Loop: decide.LoopOf(iv.Loop), Init: iv.Init, Incr: iv.Incr}, nil)
	}
	d.Entries = append(append(d.Entries, decide.Reductions(r.ReducePlan)...), decide.Classes(r.Priv)...)
	return d
}

// ScalarOfStmt returns the mapping of the scalar defined by an assignment
// statement (nil for array assignments or non-assignments).
func (r *Result) ScalarOfStmt(st *ir.Stmt) *ScalarMapping {
	def := r.SSA.DefOf[st]
	if def == nil {
		return nil
	}
	return r.Scalars[def]
}

// UseMapping returns the mapping governing a scalar use: the mapping
// recorded with its first reaching definition (the algorithm guarantees all
// reaching definitions agree).
func (r *Result) UseMapping(use *ir.Ref) *ScalarMapping {
	defs := r.SSA.ReachingDefs(use)
	for _, d := range defs {
		if m := r.Scalars[d]; m != nil {
			return m
		}
	}
	return nil
}

// RefPattern returns the symbolic owner pattern of any reference under the
// final decisions: arrays via their (possibly privatized) mapping, scalar
// uses via their reaching definition's mapping, scalar definitions via their
// own mapping.
func (r *Result) RefPattern(ref *ir.Ref) dist.OwnerPattern {
	g := r.Mapping.Grid
	if ref.Var.IsArray() {
		switch ap := r.Arrays[ref.Var]; {
		case ap != nil && ir.Encloses(ap.Loop, ref.Stmt.Loop):
			return ap.PatternOf(g, ref, r.RefPattern(ap.Target))
		case r.pats == nil:
			return dist.PatternOf(g, r.Mapping.Arrays[ref.Var], ref)
		case r.pats[ref.ID].Dims == nil:
			r.pats[ref.ID] = dist.PatternOf(g, r.Mapping.Arrays[ref.Var], ref)
		}
		return r.pats[ref.ID]
	}
	var m *ScalarMapping
	if ref.IsDef {
		m = r.Scalars[r.SSA.DefOf[ref.Stmt]]
	} else {
		m = r.UseMapping(ref)
	}
	if m != nil && m.LastPrivate && m.PrivLoop != nil && !ir.Encloses(m.PrivLoop, ref.Stmt.Loop) {
		// Past the copy-out: every processor holds the final value.
		return r.repl
	}
	return r.ScalarPattern(m)
}

// ScalarPattern returns the owner pattern for a scalar mapping decision
// (replicated when m is nil).
func (r *Result) ScalarPattern(m *ScalarMapping) dist.OwnerPattern {
	if m != nil && (m.Kind == ScalarAligned || m.Kind == ScalarReduction) {
		return m.Pattern
	}
	// Replicated and privatized-without-alignment scalars are treated as
	// replicated by communication analysis.
	return r.repl
}
