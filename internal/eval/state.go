// Package eval is the shared interpretation core of the two execution
// backends: the sequential cost-model simulator (internal/sim) and the
// concurrent SPMD executor (internal/exec). Both walk the same spmd.Program
// through the same value semantics, execution-set evaluation, and
// communication decisions defined here. The simulator's one State computes
// every statement instance; each of the executor's States computes its
// processor's instances only and stores what the plan's messages bring it
// (InterpretFor), so their numeric results agree bit for bit exactly when
// the plan moves every value an instance reads — the property the
// differential oracle (exec.Diff) checks.
//
// The core also owns what the backends must agree on beyond values: the
// schedule (schedule.go) that turns the walk's events into operations — which
// communication happens where, in which order, and where the checkpoint and
// crash sites fall — and the accountant (account.go) that charges each
// operation to the simulated machine. A backend implements the operations
// (Ops): the simulator is the accountant plus a time limit, the executor
// adds real message passing. The walk itself (walk.go) knows nothing of
// either and reports to any Backend.
package eval

import (
	"fmt"

	"phpf/internal/core"
	"phpf/internal/diag"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
)

// maxArrayElems caps a single array's element count. Larger declarations are
// almost certainly adversarial inputs (the benchmarks top out around 10^6
// elements) and would otherwise OOM or overflow offset arithmetic.
const maxArrayElems = int64(1) << 31

// NumericError reports an integer value or computation that left the exactly
// representable range — the structured diagnostic the overflow guards
// return instead of wrapping.
type NumericError struct {
	Line int     // source line when known (0 otherwise)
	What string  // which quantity overflowed
	Val  float64 // the offending value when meaningful
}

func (e *NumericError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("line %d: %s out of range (%v exceeds 2^53)", e.Line, e.What, e.Val)
	}
	return fmt.Sprintf("%s out of range (%v exceeds 2^53)", e.What, e.Val)
}

// State is one interpretation context: a memory image plus the dynamic
// (possibly redistributed) array mappings. The sequential simulator holds one
// State, which interprets for every processor; the concurrent executor holds
// one per worker, each interpreting for its own processor (InterpretFor).
//
// The memory image is slot-indexed: every variable carries a dense slot
// number (ir.AssignSlots), and values live in flat slices indexed by it, so
// the innermost interpretation path costs an array index instead of a
// pointer-keyed map probe.
type State struct {
	Prog *spmd.Program

	// slots is Prog's variable numbering (slot -> variable).
	slots []*ir.Var

	scalars   []float64 // by Var.Slot; scalar values
	scalarSet []bool    // by Var.Slot; true once Store wrote the scalar
	indices   []int64   // by Var.Slot; current loop-index values
	arrays    [][]float64
	// dyn holds the current (possibly redistributed) mapping per array.
	dyn []*dist.ArrayMap

	grid *dist.Grid
	// code is the program's lowered form (see lower.go), fetched on first
	// use; err parks the first error of the lowered evaluation in flight.
	code *code
	err  error

	// The set table: the execution set of every statement (execs, by
	// Stmt.ID), the owner set of every array reference (owners, by
	// ownerCode.id) and the resolved form of every per-instance requirement
	// (insts, by Requirement.ID), each valid while its stamp is the State's.
	// The walker gives every owner run a stamp of its own (walker.beginRun) —
	// so the backend's queries, the communication decisions and the value
	// semantics of all the run's iterations read what its first one computed
	// — and every other statement instance one too, a run of length one;
	// stamp 0, between them, keeps nothing. stamps counts the stamps given.
	// run is the loop (ID+1) of the owner run in flight, 0 outside one: a run
	// keeps only the sets its partition holds constant (ownerCode.runs), an
	// instance all it is asked for.
	execs, owners []setEntry
	insts         []instEntry
	stamp, stamps uint64
	run           int32

	// offs[k] is the offset of array access code.arrs[k] while k lies in
	// hoist, the accesses of the run in flight whose bounds guards were
	// checked at its two ends (empty: none); step[k] is what one iteration
	// adds to it.
	offs, steps []int64
	hoist       span

	// regs is the register file of swept runs (sweep.go), width values a
	// register (State.registers), and sregs the scalar pass's, one value a
	// register; tab is the tables the programs name. swept says what became
	// of the quiet run in flight: +1 swept, -1 its kernel run in iteration
	// order (a sweep would reverse a dependence), 0 no kernel.
	regs, sregs []float64
	width       int
	tab         tables
	swept       int8

	// sched is the schedule of the walk in progress (Run), kept with the
	// State's other scratch.
	sched schedule

	// charges is the charge list of the owner run in flight (schedule.resolve),
	// strip the same as the machine makes them and listed the processors they
	// name (listStrip): scratch bind sizes for the longest.
	charges []Charge
	strip   []machine.Listed
	listed  []int32

	// unionCache memoizes the per-iteration union execution set by
	// Loop.ID; unionEpoch records the epoch an entry was computed at
	// (-1 = never). epoch advances on every loop iteration and on every
	// dynamic remapping (REDISTRIBUTE), which invalidates the cache.
	unionCache []dist.ProcSet
	unionEpoch []int64
	epoch      int64

	// Privatized-reduction state (see reduce.go). partials[acc] is the
	// combine's partial table — nprocs rows of partialElems[acc] elements,
	// row p holding processor p's private partial — or nil when the combine
	// runs collectively. Indexed by spmd.Combine.AccIndex.
	partials     [][]float64
	partialElems []int64

	// Resume-cursor material (see Cursor): the upper bound and step of every
	// loop in flight, by Loop.ID, and the loop whose LoopEntry callback is
	// running (nil anywhere else). Deliberately excluded from snapshots.
	live     []iter
	entering *ir.Loop

	// proc is the processor this State interprets for; -1, the simulator's
	// one image, is every processor (see InterpretFor). While proc >= 0,
	// held[slot] is the set of processors that executed the last write of each
	// scalar, and wrote[slot], for an array written outside the owner rule
	// (code.tracked), the stamp of this State's last write of each element
	// (nil for every other array). member marks the statements of the owner
	// run in flight this State computes; computed counts the statement
	// instances whose value semantics it ran.
	proc     int
	held     []dist.ProcSet
	wrote    [][]int64
	member   []bool
	computed int64
	// shrunk counts what the State did with the loops the plan shrinks;
	// keepers are the processors that keep an account (Keepers, run.go);
	// told is the payload of a predicate's outcome (schedule.outcome).
	shrunk  ShrinkCount
	keepers dist.ProcSet
	told    [1]float64

	// moves is Section's and Redistributed's scratch; remapped is the mapping
	// the last executable redistribution left.
	moves    Moves
	remapped *dist.ArrayMap
}

// Budget bounds the resources one State may allocate. The zero value is
// unlimited — the CLIs and tests run unconstrained; serving paths set
// MaxCells so one hostile request cannot exhaust process memory.
type Budget struct {
	// MaxCells caps the total float64 cells allocated across all arrays of
	// one memory image (0 = unlimited). Each worker of the concurrent
	// backend holds a full-size image (its processor's values, and what
	// messages brought it), so a request's worst-case footprint is MaxCells ×
	// 8 bytes × workers — twice that for an array written outside the owner
	// rule, whose elements also carry a write stamp (InterpretFor).
	MaxCells int64
}

// NewState allocates a fresh unbudgeted memory image for the program (see
// NewStateBudget). Array shapes are validated against maxArrayElems so
// adversarial declarations fail with a diagnostic instead of exhausting
// memory or wrapping offset arithmetic.
func NewState(p *spmd.Program) (*State, error) {
	return NewStateBudget(p, Budget{})
}

// NewStateBudget allocates a fresh memory image under a resource budget. A
// breach returns a coded E006 diagnostic (diag.CodeBudget) before anything
// large is allocated, so a server can refuse the request as a client error
// instead of OOMing the process.
func NewStateBudget(p *spmd.Program, budget Budget) (*State, error) {
	if p == nil || p.Res == nil || p.Res.Prog == nil {
		return nil, fmt.Errorf("eval: nil program")
	}
	prog := p.Res.Prog
	slots := ir.AssignSlots(prog).Vars
	n := len(slots)
	s := &State{
		Prog:       p,
		slots:      slots,
		scalars:    make([]float64, n),
		scalarSet:  make([]bool, n),
		indices:    make([]int64, n),
		arrays:     make([][]float64, n),
		dyn:        make([]*dist.ArrayMap, n),
		grid:       p.Res.Mapping.Grid,
		unionCache: make([]dist.ProcSet, len(prog.Loops)),
		unionEpoch: make([]int64, len(prog.Loops)),
		live:       make([]iter, len(prog.Loops)),
		proc:       -1,
	}
	for i := range s.unionEpoch {
		s.unionEpoch[i] = -1
	}
	// Validate every shape and the aggregate footprint before allocating
	// anything large: a budget breach must cost O(1) memory, not trigger
	// the very allocation it exists to prevent.
	sizes := make([]int64, n)
	total := int64(0)
	for _, v := range prog.VarList {
		if !v.IsArray() {
			continue
		}
		size := int64(1)
		for _, d := range v.Dims {
			var ok bool
			size, ok = mulChecked(size, d)
			if !ok || size > maxArrayElems {
				return nil, fmt.Errorf("eval: array %s too large (> %d elements)", v.Name, maxArrayElems)
			}
		}
		if size < 0 {
			return nil, fmt.Errorf("eval: array %s has negative size", v.Name)
		}
		sizes[v.Slot] = size
		var ok bool
		if total, ok = addChecked(total, size); !ok {
			return nil, fmt.Errorf("eval: memory image overflows int64 cells")
		}
		if budget.MaxCells > 0 && total > budget.MaxCells {
			return nil, diag.Errorf("eval", diag.CodeBudget, diag.Pos{},
				"memory image needs more than %d cells (array %s alone brings the total past the MaxCells budget)",
				budget.MaxCells, v.Name)
		}
	}
	for _, v := range prog.VarList {
		if !v.IsArray() {
			continue
		}
		s.arrays[v.Slot] = make([]float64, sizes[v.Slot])
		s.dyn[v.Slot] = p.Res.Mapping.Arrays[v]
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Per-variable accessors and the final-memory export

// Scalar returns the current value of a scalar variable (0 if unassigned).
func (s *State) Scalar(v *ir.Var) float64 { return s.scalars[v.Slot] }

// ScalarSlot is where a scalar's value lives: what a message carries from its
// sender's and stores into its receivers' (no write of the program's).
func (s *State) ScalarSlot(v *ir.Var) []float64 { return s.scalars[v.Slot : v.Slot+1] }

// Index returns the current value of a loop-index variable.
func (s *State) Index(v *ir.Var) int64 { return s.indices[v.Slot] }

// Array returns the backing store of an array variable (nil for scalars).
func (s *State) Array(v *ir.Var) []float64 { return s.arrays[v.Slot] }

// Export returns the final memory by variable name — every assigned scalar
// and every array — for validation against reference implementations. The
// array slices alias the live image.
func (s *State) Export() (scalars map[string]float64, arrays map[string][]float64) {
	scalars, arrays = map[string]float64{}, map[string][]float64{}
	for i, v := range s.slots {
		if s.scalarSet[i] {
			scalars[v.Name] = s.scalars[i]
		}
		if s.arrays[i] != nil {
			arrays[v.Name] = s.arrays[i]
		}
	}
	return scalars, arrays
}

// InterpretFor binds the State to processor p: from then on it runs the value
// semantics of the statement instances p computes — the ones whose execution
// set holds p, the partial accumulations into p's row, and the assignments
// every processor computes (spmd.Program.Everywhere) — and of no others, and
// keeps what the backend stores into it. The sets themselves are resolved on
// every State (but in the shrunk loops' iterations it skips, walker.shrink),
// so every State records the same last writers. Call it before the walk.
func (s *State) InterpretFor(p int) {
	c := s.lowered()
	c.forProcessors(s.Prog)
	s.proc, s.tab = p, c.bound
	s.held = make([]dist.ProcSet, len(s.slots))
	for i := range s.held {
		s.held[i] = dist.AllProcs(s.grid)
	}
	s.wrote = make([][]int64, len(s.slots))
	for slot, t := range c.tracked {
		if t {
			s.wrote[slot] = make([]int64, len(s.arrays[slot]))
		}
	}
	s.member = make([]bool, len(c.stmts))
}

// ShrinkCount counts the iterations of the loops the plan shrinks that a
// bound State walked and skipped.
type ShrinkCount struct{ Walked, Skipped int64 }

// Shrunk returns the State's ShrinkCount.
func (s *State) Shrunk() ShrinkCount { return s.shrunk }

// Computed returns how many statement instances had their value semantics
// run on this State.
func (s *State) Computed() int64 { return s.computed }

// Holders returns the processors that hold a scalar's current value: those
// that executed its last write (all of them before any write).
func (s *State) Holders(v *ir.Var) dist.ProcSet { return s.held[v.Slot] }

// Hold records that the processors in set now hold a scalar's value — a
// collective, a copy-out or a hand-off delivered it to them.
func (s *State) Hold(v *ir.Var, set dist.ProcSet) {
	if s.proc >= 0 {
		s.held[v.Slot] = set
	}
}

// Gather makes sts[0]'s image the run's final memory and exports it: every
// array element from its first owner under the final mapping — an element of
// an array written outside the owner rule from the State that wrote it last
// (any, if none did) — and every assigned scalar from a processor that
// executed its last write. The States interpret for processors 0..len(sts)-1.
func Gather(sts []*State) (scalars map[string]float64, arrays map[string][]float64) {
	s := sts[0]
	var weight [dist.MaxRank]int // of a grid dimension's coordinate in a processor id
	for d, w := len(s.grid.Shape)-1, 1; d >= 0; d-- {
		weight[d], w = w, w*s.grid.Shape[d]
	}
	for slot, arr := range s.arrays {
		am, dims := s.dyn[slot], s.slots[slot].Dims
		if arr == nil || am == nil || am.FullyReplicated() && s.wrote[slot] == nil {
			continue
		}
		idx := make([]int64, len(dims))
		for k := range idx {
			idx[k] = 1
		}
		for e := range arr {
			p := 0
			for k := range idx {
				if ax := &am.Axes[k]; ax.Distributed {
					p += ax.OwnerDim(idx[k], s.grid.Shape[ax.GridDim]) * weight[ax.GridDim]
				}
			}
			if s.wrote[slot] != nil {
				last := int64(0)
				for q, o := range sts {
					if o.wrote[slot][e] > last {
						last, p = o.wrote[slot][e], q
					}
				}
			}
			arr[e] = sts[p].arrays[slot][e]
			for k := range idx { // column-major: the first subscript fastest
				if idx[k]++; idx[k] <= dims[k] {
					break
				}
				idx[k] = 1
			}
		}
	}
	scalars, arrays = map[string]float64{}, map[string][]float64{}
	for i, v := range s.slots {
		for _, o := range sts {
			if o.scalarSet[i] {
				scalars[v.Name] = sts[s.held[i].First()].scalars[i]
				break
			}
		}
		if s.arrays[i] != nil {
			arrays[v.Name] = s.arrays[i]
		}
	}
	return scalars, arrays
}

// Grid returns the processor grid the program is mapped onto.
func (s *State) Grid() *dist.Grid { return s.grid }

// mulChecked multiplies two non-negative int64s, reporting overflow.
func mulChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	if c/b != a || c < 0 {
		return 0, false
	}
	return c, true
}

// addChecked adds two int64s, reporting overflow.
func addChecked(a, b int64) (int64, bool) {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		return 0, false
	}
	return c, true
}

// ---------------------------------------------------------------------------
// Execution sets

// setEntry is one row of the set table.
type setEntry struct {
	set   dist.ProcSet
	stamp uint64
}

// bind attaches the program's lowered form and sizes the scratch the walk
// needs from it, once per State.
func (s *State) bind(c *code) {
	s.code, s.tab = c, c.tab
	tab := make([]setEntry, len(c.stmts)+c.nowners)
	s.execs, s.owners = tab[:len(c.stmts)], tab[len(c.stmts):]
	s.insts = make([]instEntry, len(c.reqs))
	offs := make([]int64, 2*len(c.arrs))
	s.offs, s.steps = offs[:len(c.arrs)], offs[len(c.arrs):]
	s.charges = make([]Charge, 0, c.charges)
	s.strip = make([]machine.Listed, 0, c.charges)
	s.listed = make([]int32, 0, c.charges*s.grid.Size())
}

// newStamp opens a validity period of the set table: a statement instance,
// or an owner run.
func (s *State) newStamp() {
	s.stamps++
	s.stamp = s.stamps
}

// endRun closes the validity period of an owner run, and the hoisting of
// its guards with it.
func (s *State) endRun() {
	s.stamp, s.run, s.hoist, s.swept = 0, 0, span{}, 0
}

// keeps reports whether the table may keep a set computed now: always for a
// statement instance, inside an owner run only one of the loop in runs.
func (s *State) keeps(runs int32) bool {
	return s.stamp != 0 && (s.run == 0 || s.run == runs)
}

// ExecSet evaluates a statement's execution set at the current indices —
// inside a statement instance or an owner run once, then from the table.
func (s *State) ExecSet(sp *spmd.StmtPlan) (dist.ProcSet, error) {
	if s.stamp != 0 { // given by the walker, which has bound the tables
		if e := &s.execs[sp.Stmt.ID]; e.stamp == s.stamp {
			return e.set, nil
		}
	}
	return s.execSet(sp)
}

// execSet is ExecSet past the table (apart, so that the read stays small).
func (s *State) execSet(sp *spmd.StmtPlan) (dist.ProcSet, error) {
	sc := &s.lowered().stmts[sp.Stmt.ID]
	set, ok := sc.exec.eval(s)
	if !ok {
		return dist.ProcSet{}, s.takeErr()
	}
	if s.keeps(sc.runs) {
		s.execs[sp.Stmt.ID] = setEntry{set, s.stamp}
	}
	return set, nil
}

// OwnerSet evaluates the owners of an array reference under the dynamic
// distribution (plus privatization overrides).
func (s *State) OwnerSet(ref *ir.Ref) (dist.ProcSet, error) {
	if !ref.Var.IsArray() {
		return dist.AllProcs(s.grid), nil // scalars have no mapping of their own
	}
	set, ok := s.ownerOf(s.lowered().owners[ref.ID])
	if !ok {
		return dist.ProcSet{}, s.takeErr()
	}
	return set, nil
}

// ownerOf evaluates lowered owner code through the set table.
func (s *State) ownerOf(oc *ownerCode) (dist.ProcSet, bool) {
	e := &s.owners[oc.id]
	if e.stamp == s.stamp && s.stamp != 0 {
		return e.set, true
	}
	set, ok := oc.eval(s)
	if ok && s.keeps(oc.runs) {
		e.set, e.stamp = set, s.stamp
	}
	return set, ok
}

// ScalarSet evaluates the owners of a mapped scalar's value at the current
// indices: the processors a reduction combines over, or the owner a
// lastprivate copy-out broadcasts from.
func (s *State) ScalarSet(m *core.ScalarMapping) dist.ProcSet {
	return s.lowered().scalars[m].eval(s)
}

// UnionSet computes (and memoizes per iteration) the union of the execution
// sets of the loop body's owner-driven statements.
func (s *State) UnionSet(l *ir.Loop) dist.ProcSet {
	if l == nil {
		return dist.AllProcs(s.grid)
	}
	if s.unionEpoch[l.ID] == s.epoch {
		return s.unionCache[l.ID]
	}
	// The contributing statements and their owner patterns are static per
	// program — lowered with it for every loop some statement executes on the
	// union of; only their evaluation depends on the current indices.
	u := dist.AllProcs(s.grid)
	for i, part := range s.lowered().loops[l.ID].union {
		if set := part.eval(s); i == 0 {
			u = set
		} else {
			u = u.Union(set)
		}
	}
	s.unionCache[l.ID] = u
	s.unionEpoch[l.ID] = s.epoch
	return u
}

// TripCount evaluates a loop's trip count at the current indices. Bounds are
// range-checked to 2^53, so the (hi-lo)/step+1 arithmetic cannot wrap.
func (s *State) TripCount(l *ir.Loop) (int64, error) {
	lo, hi, step, ok := s.lowered().loops[l.ID].bounds(s)
	if !ok {
		return 0, s.takeErr()
	}
	if step == 0 {
		return 0, fmt.Errorf("zero step in %s-loop at line %d", l.Index.Name, l.Line)
	}
	n := (hi-lo)/step + 1
	if n < 0 {
		n = 0
	}
	return n, nil
}
