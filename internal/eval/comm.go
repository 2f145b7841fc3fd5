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

// UseValue evaluates the element a per-instance requirement transfers, on
// the current memory image — the payload the concurrent backend checksums.
func (s *State) UseValue(req *comm.Requirement) (float64, error) {
	v := s.lowered().reqs[req.ID].use(s)
	return v, s.takeErr()
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
			Participants: dist.AllProcs(g)}, nil

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
	s.dyn[v.Slot] = nm
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
