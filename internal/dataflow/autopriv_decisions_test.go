package dataflow

import (
	"strings"
	"testing"

	"phpf/internal/ast"
	"phpf/internal/ir"
	"phpf/internal/parser"
	"phpf/internal/ssa"
)

// classifySrc runs the full classification pipeline (parse → IR → CFG → SSA →
// const-prop → ClassifyPrivatization) on one source.
func classifySrc(t *testing.T, src string) (*ir.Program, *PrivSummary) {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return classifyAST(t, ap)
}

func classifyAST(t *testing.T, ap *ast.Program) (*ir.Program, *PrivSummary) {
	t.Helper()
	p, err := ir.Build(ap)
	if err != nil {
		t.Fatalf("ir: %v", err)
	}
	g, err := ir.BuildCFG(p)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	s := ssa.Build(p, g)
	return p, ClassifyPrivatization(p, g, s, PropagateConstants(s), FindReductions(p, s))
}

// want is one expected classification: the decision for a (variable, loop)
// pair and a fragment of the recorded reason.
type want struct {
	v, loop   string
	decision  PrivDecision
	reasonHas string
}

// decisionRows is TestClassifyDecisions' table (TestPrivateClaimsHold also
// holds every private array in it, and in its mutants, to the coverage
// oracle).
var decisionRows = []struct {
	name  string
	src   string
	wants []want
}{
	{
		name: "private scalar, def-before-use each iteration",
		src: `
program t
parameter n = 16
real a(n), b(n)
real x
integer i
!hpf$ distribute (block) :: a, b
do i = 1, n
  x = a(i) * 2.0
  b(i) = x + 1.0
end do
end
`,
		wants: []want{{"x", "i", PrivPrivate, "same-iteration definitions"}},
	},
	{
		name: "lastprivate: constant bounds prove a final iteration",
		src: `
program t
parameter n = 16
real a(n), b(n)
real x
integer i, k
!hpf$ distribute (block) :: a, b
do i = 1, n
  x = a(i) * 2.0
  b(i) = x + 1.0
end do
do k = 1, n
  b(k) = b(k) + x
end do
end
`,
		wants: []want{{"x", "i", PrivLastPrivate, "copy-out at loop exit"}},
	},
	{
		name: "lastprivate: bound is a scalar const-prop proves",
		src: `
program t
parameter n = 16
real a(n), b(n)
real x
integer i, k, m
!hpf$ distribute (block) :: a, b
m = 12
do i = 1, m
  x = a(i) * 2.0
  b(i) = x + 1.0
end do
do k = 1, n
  b(k) = b(k) + x
end do
end
`,
		wants: []want{{"x", "i", PrivLastPrivate, "copy-out at loop exit"}},
	},
	{
		name: "serialized: unprovable trip count blocks the copy-out",
		src: `
program t
parameter n = 16
real a(n), b(n)
real x
integer i, k, m
!hpf$ distribute (block) :: a, b
m = a(1)
do i = 1, m
  x = a(i) * 2.0
  b(i) = x + 1.0
end do
do k = 1, n
  b(k) = b(k) + x
end do
end
`,
		wants: []want{{"x", "i", PrivSerialized, "copy-out is unprovable"}},
	},
	{
		name: "serialized: upward-exposed read of the pre-loop value",
		src: `
program t
parameter n = 16
real a(n), b(n)
real x
integer i
!hpf$ distribute (block) :: a, b
x = 3.0
do i = 1, n
  b(i) = x + a(i)
  x = a(i) * 2.0
end do
end
`,
		wants: []want{{"x", "i", PrivSerialized, "live on entry"}},
	},
	{
		name: "serialized: conditional definition defeats the copy-out",
		src: `
program t
parameter n = 16
real a(n), b(n)
real x
integer i, k
!hpf$ distribute (block) :: a, b
x = 0.0
do i = 1, n
  if (a(i) > 0.0) then
    x = a(i)
  end if
  b(i) = a(i) * 2.0
end do
do k = 1, n
  b(k) = b(k) + x
end do
end
`,
		wants: []want{{"x", "i", PrivSerialized, "copy-out is unprovable"}},
	},
	{
		name: "private array: fully written then read each iteration",
		src: `
program t
parameter n = 16
real a(n,n), w(n)
integer i, k
!hpf$ distribute (*,block) :: a
do k = 1, n
  do i = 1, n
    w(i) = a(i,k) * 2.0
  end do
  do i = 1, n
    a(i,k) = w(i) + 1.0
  end do
end do
end
`,
		wants: []want{{"w", "k", PrivPrivate, "covered by same-iteration writes"}},
	},
	{
		// The twin above with a strided write loop: w(2), w(4), ... are read
		// and never written. A write loop fills its range only at step +1.
		name: "serialized array: a strided write loop leaves every other element unwritten",
		src: `
program t
parameter n = 16
real a(n,n), w(n)
integer i, k
!hpf$ distribute (*,block) :: a
do k = 1, n
  do i = 1, n, 2
    w(i) = a(i,k) * 2.0
  end do
  do i = 1, n
    a(i,k) = w(i) + 1.0
  end do
end do
end
`,
		wants: []want{{"w", "k", PrivSerialized, "w(i) at 12:5 is not covered by writes earlier in the iteration"}},
	},
	{
		// The twin with a descending read loop that starts above the written
		// range: (Lo, Hi) = (n+5, 1) is (max, min) in the direction it runs.
		name: "serialized array: a descending read loop starts above the written range",
		src: `
program t
parameter n = 16
parameter m = 21
real a(m,n), w(m)
integer i, k
!hpf$ distribute (*,block) :: a
do k = 1, n
  do i = 1, n
    w(i) = a(i,k) * 2.0
  end do
  do i = n+5, 1, -1
    a(i,k) = w(i) + 1.0
  end do
end do
end
`,
		wants: []want{{"w", "k", PrivSerialized, "w(i) at 13:5 is not covered by writes earlier in the iteration"}},
	},
	{
		name: "serialized array: read after the loop",
		src: `
program t
parameter n = 16
real a(n,n), w(n), b(n)
integer i, k
!hpf$ distribute (*,block) :: a
do k = 1, n
  do i = 1, n
    w(i) = a(i,k) * 2.0
  end do
  do i = 1, n
    a(i,k) = w(i) + 1.0
  end do
end do
do i = 1, n
  b(i) = w(i)
end do
end
`,
		wants: []want{{"w", "k", PrivSerialized, "reads the array after the loop"}},
	},
	{
		// Three more ways a range is believed filled when it is not, found by
		// reading once the containment proof substituted bounds instead of
		// matching names. The read sits inside the write loop: at iteration
		// i only w(1..i) is written, and w(1..n) is read.
		name: "serialized array: the read runs inside the write loop",
		src: `
program t
parameter n = 16
real a(n,n), w(n)
integer i, j, k
!hpf$ distribute (*,block) :: a
do k = 1, n
  do i = 1, n
    w(i) = a(i,k) * 2.0
    do j = 1, n
      a(j,k) = a(j,k) + w(j)
    end do
  end do
end do
end
`,
		wants: []want{{"w", "k", PrivSerialized, "not covered by writes"}, {"w", "i", PrivSerialized, "not covered by writes"}},
	},
	{
		// Two triangular nests whose bounds name i — two different loops:
		// the write reaches w(1..3), the read w(1..n).
		name: "serialized array: triangular bounds over two loops of one name",
		src: `
program t
parameter n = 16
real a(n,n), w(n)
integer i, j, k
!hpf$ distribute (*,block) :: a
do k = 1, n
  do i = 1, 3
    do j = 1, i
      w(j) = a(j,k) * 2.0
    end do
  end do
  do i = 1, n
    do j = 1, i
      a(j,k) = a(j,k) + w(j)
    end do
  end do
end do
end
`,
		wants: []want{{"w", "k", PrivSerialized, "not covered by writes"}},
	},
	{
		// The write nest is repeated by a loop that is empty at k = n.
		name: "serialized array: the loop repeating the write may not run",
		src: `
program t
parameter n = 16
real a(n,n), w(n)
integer i, j, k
!hpf$ distribute (*,block) :: a
do k = 1, n
  do i = k+1, n
    do j = 1, n
      w(j) = a(j,k) * 2.0
    end do
  end do
  do j = 1, n
    a(j,k) = a(j,k) + w(j)
  end do
end do
end
`,
		wants: []want{{"w", "k", PrivSerialized, "not covered by writes"}},
	},
	{
		// The write scans i ∈ [2,n] but the read scans i ∈ [1,n]: w(1)
		// reads a value from before the loop (or an earlier iteration).
		name: "serialized array: read not covered by earlier writes",
		src: `
program t
parameter n = 16
real a(n,n), w(n)
integer i, k
!hpf$ distribute (*,block) :: a
do k = 1, n
  do i = 2, n
    w(i) = a(i,k) * 2.0
  end do
  do i = 1, n
    a(i,k) = w(i) + 1.0
  end do
end do
end
`,
		wants: []want{{"w", "k", PrivSerialized, "not covered by writes earlier in the iteration"}},
	},
}

// TestClassifyDecisions pins the per-variable classification against
// hand-derived expectations.
func TestClassifyDecisions(t *testing.T) {
	for _, tc := range decisionRows {
		t.Run(tc.name, func(t *testing.T) {
			p, sum := classifySrc(t, tc.src)
			for _, w := range tc.wants {
				v := p.LookupVar(w.v)
				if v == nil {
					t.Fatalf("no variable %s", w.v)
				}
				var loop *ir.Loop
				for _, l := range p.Loops {
					if l.Index.Name == w.loop {
						loop = l
					}
				}
				if loop == nil {
					t.Fatalf("no %s-loop", w.loop)
				}
				c := sum.Of(v, loop)
				if c == nil {
					t.Fatalf("%s wrt %s-loop: not a candidate; classes: %v", w.v, w.loop, sum.Classes)
				}
				if c.Decision != w.decision {
					t.Errorf("%s wrt %s-loop: decision %s, want %s (%s)", w.v, w.loop, c.Decision, w.decision, c.Reason())
				}
				if !strings.Contains(c.Reason(), w.reasonHas) {
					t.Errorf("%s wrt %s-loop: reason %q does not mention %q", w.v, w.loop, c.Reason(), w.reasonHas)
				}
				if c.Decision == PrivSerialized && c.Blocking == nil {
					t.Errorf("%s wrt %s-loop: serialized without a blocking reference", w.v, w.loop)
				}
			}
		})
	}
}

// TestClassifyTripCount pins tripAtLeastOnce across the bound forms.
func TestClassifyTripCount(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n)
integer i, j, k, l, m, z
!hpf$ distribute (block) :: a
m = 4
z = a(1)
do i = 1, n
  a(i) = 1.0
end do
do j = 1, m
  a(j) = 2.0
end do
do k = 1, z
  a(k) = 3.0
end do
do l = 4, 7/2
  a(l) = 4.0
end do
end
`
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(ap)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	s := ssa.Build(p, g)
	cp := PropagateConstants(s)
	wants := map[string]bool{
		"i": true,  // parameter bounds fold to constants
		"j": true,  // bound scalar m is const-propagated
		"k": false, // z comes from memory: unprovable
		"l": true,  // 7/2 is 3.5, which the bound rounds to 4: one iteration
	}
	for _, l := range p.Loops {
		if got := tripAtLeastOnce(cp, l); got != wants[l.Index.Name] {
			t.Errorf("%s-loop: tripAtLeastOnce = %v, want %v", l.Index.Name, got, wants[l.Index.Name])
		}
	}
	if tripAtLeastOnce(nil, p.Loops[0]) {
		t.Error("nil ConstProp must be conservative")
	}
}
