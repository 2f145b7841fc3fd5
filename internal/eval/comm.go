// Communication decisions shared by the backends: given the current memory
// image, decide for each comm.Requirement whether data moves, between which
// processor sets, and how many bytes. The sequential simulator charges its
// cost model from these decisions; the concurrent executor performs real
// channel sends and receives from the very same ones — which is why the two
// backends' message and byte counts must agree exactly.
package eval

import (
	"fmt"

	"phpf/internal/ast"
	"phpf/internal/comm"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/spmd"
)

// InstanceOp is the resolved form of one per-instance communication: a
// single-element transfer from the owners of the use to the statement's
// execution set, skipped when the data already resides everywhere it is
// needed.
type InstanceOp struct {
	// Skip: the source set covers the destination set; no message flows
	// (the guard is still evaluated — that is the per-iteration penalty
	// message vectorization removes).
	Skip bool
	// From is the sending processor (a deterministic representative of the
	// source set).
	From int
	// Dst is the receiving execution set.
	Dst dist.ProcSet
	// Bytes is the message payload size.
	Bytes int64
}

// instEntry is one row of the set table (see State.insts).
type instEntry struct {
	op    InstanceOp
	stamp uint64
}

// InstanceOp resolves one per-instance requirement at the current indices —
// inside an owner run once, then from the set table. (A single statement
// instance asks once, so there the table would only cost its upkeep.)
func (s *State) InstanceOp(req *comm.Requirement, sp *spmd.StmtPlan, elemBytes int64) (InstanceOp, error) {
	rc := &s.lowered().reqs[req.ID]
	kept := s.run != 0 && s.run == rc.runs
	if kept {
		if e := &s.insts[req.ID]; e.stamp == s.stamp && (e.op.Bytes == elemBytes || e.op.Skip) {
			return e.op, nil
		}
	}
	dst, err := s.ExecSet(sp)
	if err != nil {
		return InstanceOp{}, err
	}
	var src dist.ProcSet
	if rc.srcOwner != nil {
		// Evaluate under the dynamic (possibly redistributed) mapping.
		var ok bool
		if src, ok = s.ownerOf(rc.srcOwner); !ok {
			return InstanceOp{}, s.takeErr()
		}
	} else {
		src = rc.srcPat.eval(s)
	}
	// (Each result is built twice, for the table and for the caller, rather
	// than once in a local: copying a just-written struct out of a local
	// stalls on every instance of the general walk.)
	if src.CoversSet(dst) {
		if kept {
			s.insts[req.ID] = instEntry{InstanceOp{Skip: true}, s.stamp}
		}
		return InstanceOp{Skip: true}, nil
	}
	from, single := src.IsSingle()
	if !single {
		from = src.First()
	}
	if kept {
		s.insts[req.ID] = instEntry{InstanceOp{From: from, Dst: dst, Bytes: elemBytes}, s.stamp}
	}
	return InstanceOp{From: from, Dst: dst, Bytes: elemBytes}, nil
}

// UseAt returns where the memory image keeps the element a per-instance
// requirement transfers, at the current indices: what the sender reads and
// each receiver stores before the statement's value semantics.
func (s *State) UseAt(req *comm.Requirement) (*float64, error) {
	rc := &s.lowered().reqs[req.ID]
	if rc.at == nil {
		return &s.scalars[rc.slot], nil
	}
	off, ok := rc.at.offset(s)
	if !ok {
		return nil, s.takeErr()
	}
	return &s.arrays[rc.slot][off], nil
}

// Move is one element a communication brings the images into agreement on:
// where this State keeps it and, as indices into its list's Sets, the
// processors that hold its value (the first sends it) and those that read it.
type Move struct {
	At       *float64
	From, To int32
}

// Moves is a list of Move; a few sets serve a whole section. First[i] is
// Sets[i].First(), the processor that sends what Sets[i] holds.
type Moves struct {
	Elems []Move
	Sets  []dist.ProcSet
	First []int
}

// intern returns the index of set in mv.Sets, adding it unless it is one of
// the last two: the previous element's owners and readers.
func (mv *Moves) intern(set dist.ProcSet) int32 {
	for i := len(mv.Sets) - 1; i >= max(0, len(mv.Sets)-2); i-- {
		if mv.Sets[i].Equal(set) {
			return int32(i)
		}
	}
	mv.Sets, mv.First = append(mv.Sets, set), append(mv.First, set.First())
	return int32(len(mv.Sets) - 1)
}

// passes reports whether the State's processor sends or receives what from
// holds and to reads: the lists of two States keep, in the same order, the
// elements that pass between them.
func (s *State) passes(from, to dist.ProcSet) bool {
	p := s.proc
	return to.Contains(p) && !from.Contains(p) || from.First() == p && !from.CoversSet(to)
}

// Section lists, at the entry of a vectorized requirement's hoisted nest —
// or at an instance, for a per-instance one — the elements its use reads that
// the State's processor sends or receives. Every State enumerates them in the
// same order (indices and mapping are replicated), so the two ends of a
// message agree on its layout without naming an address. An element the nest
// would address out of bounds is one no iteration reads, and is left out.
// While the use's statement is a privatized elementwise update, its readers
// are where the update accumulates (Ops.Operands). The list is the State's
// scratch, valid until the next call.
func (s *State) Section(req *comm.Requirement) *Moves {
	rc := &s.lowered().reqs[req.ID]
	s.moves.Elems, s.moves.Sets, s.moves.First = s.moves.Elems[:0], s.moves.Sets[:0], s.moves.First[:0]
	var saved [8]int64
	for k, l := range rc.nest[:min(len(rc.nest), len(saved))] {
		saved[k] = s.indices[l.Index.Slot]
	}
	s.enumerate(rc, 0)
	for k, l := range rc.nest[:min(len(rc.nest), len(saved))] {
		s.indices[l.Index.Slot] = saved[k]
	}
	s.err = nil
	return &s.moves
}

// enumerate lists the section's elements from nest level k inward, the
// innermost walked loop by stretches over which the owners and readers stay
// what they are, each taken or passed over whole.
func (s *State) enumerate(rc *reqCode, k int) {
	if k == len(rc.nest) {
		s.stretch(rc, -1, 0, 1)
		return
	}
	l := rc.nest[k]
	lo, hi, step, ok := s.code.loops[l.ID].bounds(s)
	if !ok || step == 0 {
		s.err = nil
		return
	}
	slot, inner := l.Index.Slot, k == len(rc.nest)-1 && rc.walk[k]
	runs := inner && rc.lim > 0 && s.exactOver(l, lo, hi, step, rc.lim)
	for v := lo; (step > 0 && v <= hi) || (step < 0 && v >= hi); {
		s.indices[slot] = v
		n := int64(1)
		switch {
		case !inner:
			if s.enumerate(rc, k+1); !rc.walk[k] {
				return
			}
		case runs:
			n = rc.srcOwner.run(s, slot, step, (hi-v)/step+1)
			if rc.comb == nil || !s.PrivatizedActive(rc.comb) {
				n = rc.elemDst.run(s, slot, step, n)
			} else if rc.reader != nil {
				n = rc.reader.run(s, slot, step, n)
			}
			fallthrough
		default:
			s.stretch(rc, slot, step, n)
		}
		v += n * step
	}
}

// stretch lists, when they pass here, the n elements the use addresses from
// the current iteration on of the loop whose index is in slot (slot -1: the
// one element the current indices address).
func (s *State) stretch(rc *reqCode, slot int32, step, n int64) {
	from, ok := dist.ProcSet{}, true
	if rc.at == nil {
		from = rc.srcPat.eval(s)
	} else {
		from, ok = rc.srcOwner.eval(s)
	}
	// The element's readers: the destination, or, while its statement is a
	// privatized elementwise update, where the update accumulates — the
	// owners of its data reference, else processor 0.
	to := dist.AllProcs(s.grid)
	switch {
	case rc.comb == nil || !s.PrivatizedActive(rc.comb):
		to = rc.elemDst.eval(s)
	case rc.reader != nil:
		if ok {
			to, ok = rc.reader.eval(s)
		}
	default:
		to = dist.Single(s.grid, 0)
	}
	if s.err = nil; !ok || !s.passes(from, to) {
		return
	}
	mv := &s.moves
	m := Move{At: &s.scalars[rc.slot], From: mv.intern(from), To: mv.intern(to)}
	for t := int64(0); t < n; t++ {
		if t > 0 {
			s.indices[slot] += step
		}
		if rc.at != nil {
			off, ok := rc.at.offset(s)
			if s.err = nil; !ok {
				continue
			}
			m.At = &s.arrays[rc.slot][off]
		}
		mv.Elems = append(mv.Elems, m)
	}
}

// Redistributed lists the elements of the array an executable redistribution
// just remapped, each from its owners under the mapping it left to those
// under the new one.
func (s *State) Redistributed(st *ir.Stmt) *Moves {
	v := st.Redist.Array
	old, now, arr := s.remapped, s.dyn[v.Slot], s.arrays[v.Slot]
	mv := &s.moves
	mv.Elems, mv.Sets, mv.First = mv.Elems[:0], mv.Sets[:0], mv.First[:0]
	if old == nil || now == nil {
		return mv
	}
	idx := make([]int64, len(v.Dims))
	for k := range idx {
		idx[k] = 1
	}
	for off := range arr {
		if from, to := old.Owner(s.grid, idx), now.Owner(s.grid, idx); s.passes(from, to) {
			mv.Elems = append(mv.Elems, Move{At: &arr[off], From: mv.intern(from), To: mv.intern(to)})
		}
		for k := range idx { // column-major: the first subscript fastest
			if idx[k]++; idx[k] <= v.Dims[k] {
				break
			}
			idx[k] = 1
		}
	}
	return mv
}

// VecKind discriminates the resolved form of a vectorized communication.
type VecKind int

const (
	// VecSkip: zero trips, or the source already covers the destinations
	// at this entry of the hoisted nest.
	VecSkip VecKind = iota
	// VecShift: nearest-neighbor shift among Participants, PerProc bytes
	// each.
	VecShift
	// VecBcast: tree multicast of Bytes from From to Dst.
	VecBcast
	// VecExchange: aggregated general communication of Bytes from the
	// owners in Src to the processors in Dst.
	VecExchange
)

// VectorizedOp is the resolved form of one hoisted (vectorized)
// communication covering all iterations of its hoisted loops.
type VectorizedOp struct {
	Kind VecKind

	Src, Dst dist.ProcSet // VecBcast (Dst), VecExchange (both)
	From     int          // VecBcast root

	Bytes        int64        // aggregated transfer size (VecBcast, VecExchange)
	PerProc      int64        // per-participant bytes (VecShift)
	Participants dist.ProcSet // VecShift participants
	// Ring is the way a shift's data flows around the ring of processor
	// numbers: +1 to the next one, -1 to the previous (VecShift).
	Ring int
}

// VectorizedOp resolves one hoisted requirement at the current loop entry.
// The transferred volume counts only the loops the reference actually varies
// in (a pivot column read by every j iteration is sent once, not once per
// j), and the transfer is skipped entirely when the evaluated source set
// already covers the destinations (e.g. a block shift that does not cross a
// processor boundary here).
func (s *State) VectorizedOp(req *comm.Requirement, elemBytes int64) (VectorizedOp, error) {
	g := s.grid
	rc := &s.lowered().reqs[req.ID]
	trips := int64(1)
	for _, l := range rc.trips {
		t, err := s.TripCount(l)
		if err != nil {
			return VectorizedOp{}, err
		}
		var ok bool
		if trips, ok = mulChecked(trips, t); !ok {
			return VectorizedOp{}, &NumericError{Line: req.Stmt.Line,
				What: "aggregated trip count", Val: float64(t)}
		}
	}
	if trips <= 0 {
		return VectorizedOp{Kind: VecSkip}, nil
	}
	srcEval := rc.srcPat.eval(s)
	dstEval := rc.dstPat.eval(s)
	// Skip when, at this particular entry of the hoisted nest, the source
	// data already resides wherever the destinations need it — e.g. a block
	// shift whose (invariant) position does not cross a processor boundary.
	if rc.covered.eval(s) {
		return VectorizedOp{Kind: VecSkip}, nil
	}
	bytesTotal, ok := mulChecked(trips, elemBytes)
	if !ok {
		return VectorizedOp{}, &NumericError{Line: req.Stmt.Line,
			What: "aggregated transfer size", Val: float64(trips)}
	}

	switch req.Class {
	case dist.CommShift:
		// Only boundary elements cross processors under a block
		// distribution; everything moves under cyclic.
		perProc := int64(0)
		for d := range req.SrcPat.Dims {
			dp := req.SrcPat.Dims[d]
			delta, _ := dp.Shift(req.DstPat.Dims[d])
			if delta == 0 {
				continue // replicated, or the dimension matches
			}
			if delta < 0 {
				delta = -delta
			}
			if dp.Kind == ast.DistBlock {
				if delta > dp.Block {
					delta = dp.Block
				}
				// Fraction of the aggregated elements near the boundary.
				share := trips * delta / max(dp.Extent, 1)
				perProc += max(share, delta) * elemBytes
			} else {
				perProc += bytesTotal / int64(g.Size())
			}
		}
		if perProc == 0 {
			perProc = elemBytes
		}
		return VectorizedOp{Kind: VecShift, PerProc: perProc,
			Participants: dist.AllProcs(g), Ring: rc.ring}, nil

	case dist.CommBcast:
		return VectorizedOp{Kind: VecBcast, From: srcEval.First(), Dst: dstEval,
			Bytes: bytesTotal}, nil

	default:
		return VectorizedOp{Kind: VecExchange, Src: srcEval, Dst: dstEval,
			Bytes: bytesTotal}, nil
	}
}

// RefVariesIn reports whether a reference denotes different data across
// iterations of l (scalars are invariant; array refs vary when some
// subscript does).
func RefVariesIn(u *ir.Ref, l *ir.Loop) bool {
	if !u.Var.IsArray() {
		return false
	}
	for _, sub := range u.Subs {
		if sub.VariesIn(l) {
			return true
		}
	}
	return false
}

// ApplyRedistribute changes an array's dynamic mapping in this state. The
// cost (an all-to-all among all processors) is charged by the backend.
func (s *State) ApplyRedistribute(st *ir.Stmt) error {
	v := st.Redist.Array
	nm, err := dist.DistributeArray(s.grid, v, st.Redist.Formats)
	if err != nil {
		return &RedistError{Line: st.Line, Err: err}
	}
	s.remapped, s.dyn[v.Slot] = s.dyn[v.Slot], nm
	// The remap changes ownership, so any union execution set memoized for
	// the current epoch is stale; advance the epoch to invalidate it.
	s.epoch++
	return nil
}

// RedistBytesPerProc sizes the all-to-all a redistribution performs: each
// processor's share of the array.
func (s *State) RedistBytesPerProc(st *ir.Stmt, elemBytes int64) int64 {
	return st.Redist.Array.Size() * elemBytes / int64(s.grid.Size())
}

// RedistError is a failed executable redistribution.
type RedistError struct {
	Line int
	Err  error
}

func (e *RedistError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }
func (e *RedistError) Unwrap() error { return e.Err }
