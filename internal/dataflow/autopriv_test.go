package dataflow

import (
	"testing"

	"phpf/internal/ir"
)

// findAuto returns the arrays the classification proves private — the array
// projection of ClassifyPrivatization.
func findAuto(t *testing.T, src string) (*ir.Program, []PrivClass) {
	t.Helper()
	p, sum := classifySrc(t, src)
	var out []PrivClass
	for _, c := range sum.Classes {
		if c.Var.IsArray() && c.Decision == PrivPrivate {
			out = append(out, c)
		}
	}
	return p, out
}

func hasAuto(list []PrivClass, varName, loopIdx string) bool {
	for _, a := range list {
		if a.Var.Name == varName && a.Loop.Index.Name == loopIdx {
			return true
		}
	}
	return false
}

// TestAutoPrivFullyWrittenThenRead: the classic pattern — a work array
// fully written then fully read in each iteration.
func TestAutoPrivFullyWrittenThenRead(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n,n), w(n)
integer i, k
do k = 1, n
  do i = 1, n
    w(i) = a(i,k) * 2.0
  end do
  do i = 1, n
    a(i,k) = w(i) + 1.0
  end do
end do
end
`
	_, auto := findAuto(t, src)
	if !hasAuto(auto, "w", "k") {
		t.Errorf("w should be auto-privatizable wrt the k-loop; got %v", auto)
	}
}

// TestAutoPrivRejectsLiveOut: the work array read after the loop is not
// privatizable.
func TestAutoPrivRejectsLiveOut(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n,n), w(n)
integer i, k
do k = 1, n
  do i = 1, n
    w(i) = a(i,k) * 2.0
  end do
end do
do i = 1, n
  a(i,1) = w(i)
end do
end
`
	_, auto := findAuto(t, src)
	if hasAuto(auto, "w", "k") {
		t.Error("w is live-out and must not be privatizable")
	}
}

// TestAutoPrivRejectsExposedRead: reading before writing in the iteration
// (upward-exposed) blocks privatization.
func TestAutoPrivRejectsExposedRead(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n,n), w(n)
integer i, k
do k = 1, n
  do i = 1, n
    a(i,k) = w(i) + 1.0
  end do
  do i = 1, n
    w(i) = a(i,k) * 2.0
  end do
end do
end
`
	_, auto := findAuto(t, src)
	if hasAuto(auto, "w", "k") {
		t.Error("w has an upward-exposed read and must not be privatizable")
	}
}

// TestAutoPrivRejectsConditionalWrite: a write under an IF does not cover.
func TestAutoPrivRejectsConditionalWrite(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n,n), w(n)
integer i, k
do k = 1, n
  do i = 1, n
    if (a(i,k) > 0.0) then
      w(i) = a(i,k)
    end if
  end do
  do i = 1, n
    a(i,k) = w(i)
  end do
end do
end
`
	_, auto := findAuto(t, src)
	if hasAuto(auto, "w", "k") {
		t.Error("conditionally-written w must not be privatizable")
	}
}

// TestAutoPrivRecurrenceSameNest: a trailing read c(i-1) after writing c(i)
// in the same nest is covered when the read range trails the written range.
func TestAutoPrivRecurrenceSameNest(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n,n), c(n)
integer i, k
do k = 1, n
  do i = 2, n
    c(i) = a(i,k)
    a(i,k) = c(i) + c(i-1)
  end do
end do
end
`
	// Read c(i-1) at iteration i reads the position written at iteration
	// i-1 — but iteration i=2 reads c(1), which is never written: exposed.
	_, auto := findAuto(t, src)
	if hasAuto(auto, "c", "k") {
		t.Error("c(1) is exposed at i=2; c must not be privatizable")
	}
}

// TestAutoPrivRecurrenceCovered: when the read range provably trails the
// writes, the recurrence is covered.
func TestAutoPrivRecurrenceCovered(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n,n), c(n)
integer i, k
do k = 1, n
  do i = 1, n
    c(i) = a(i,k)
  end do
  do i = 2, n
    a(i,k) = c(i) + c(i-1)
  end do
end do
end
`
	// Writes cover [1,n]; reads cover [2,n] and [1,n-1]: contained.
	_, auto := findAuto(t, src)
	if !hasAuto(auto, "c", "k") {
		t.Errorf("c should be auto-privatizable; got %v", auto)
	}
}

// TestAutoPrivRejectsPartialWriteRange: writes [2..n] do not cover reads
// [1..n].
func TestAutoPrivRejectsPartialWriteRange(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n,n), w(n)
integer i, k
do k = 1, n
  do i = 2, n
    w(i) = a(i,k)
  end do
  do i = 1, n
    a(i,k) = w(i)
  end do
end do
end
`
	_, auto := findAuto(t, src)
	if hasAuto(auto, "w", "k") {
		t.Error("w(1) is never written; must not be privatizable")
	}
}

// TestAutoPrivInvariantDim: invariant subscripts must match exactly.
func TestAutoPrivInvariantDim(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n,n), w(n,2)
integer i, k
do k = 1, n
  do i = 1, n
    w(i,1) = a(i,k)
  end do
  do i = 1, n
    a(i,k) = w(i,1) * 2.0
  end do
end do
end
`
	_, auto := findAuto(t, src)
	if !hasAuto(auto, "w", "k") {
		t.Errorf("w with matching invariant dim should privatize; got %v", auto)
	}

	// Mismatched plane: read w(i,2) never written.
	src2 := `
program t
parameter n = 16
real a(n,n), w(n,2)
integer i, k
do k = 1, n
  do i = 1, n
    w(i,1) = a(i,k)
  end do
  do i = 1, n
    a(i,k) = w(i,2) * 2.0
  end do
end do
end
`
	_, auto2 := findAuto(t, src2)
	if hasAuto(auto2, "w", "k") {
		t.Error("w(i,2) is never written; must not be privatizable")
	}
}
