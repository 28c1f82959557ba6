package ilp

import (
	"errors"
	"math/big"
	"testing"
)

// Edge-case regressions for the exact solver: the degenerate corners that
// tolerance-based solvers get wrong, and that the block-size kernel's ILP
// oracle must adjudicate exactly.

func frac(n, d int64) *big.Rat { return big.NewRat(n, d) }

// TestInfeasibleSystem: x ≥ 2 and x ≤ 1 cannot both hold.
func TestInfeasibleSystem(t *testing.T) {
	p := NewMinimize()
	p.AddVar("x", frac(1, 1), false)
	p.AddConstraint("lo", []*big.Rat{frac(1, 1)}, GE, frac(2, 1))
	p.AddConstraint("hi", []*big.Rat{frac(1, 1)}, LE, frac(1, 1))
	sol, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	// The ILP must agree: integrality cannot rescue an empty polytope.
	pi := NewMinimize()
	pi.AddVar("x", frac(1, 1), true)
	pi.AddConstraint("lo", []*big.Rat{frac(1, 1)}, GE, frac(2, 1))
	pi.AddConstraint("hi", []*big.Rat{frac(1, 1)}, LE, frac(1, 1))
	sol, err = pi.SolveILP()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("ILP status %v, want infeasible", sol.Status)
	}
}

// TestUnboundedLP: maximise x subject to x ≥ 0 only.
func TestUnboundedLP(t *testing.T) {
	p := NewMaximize()
	p.AddVar("x", frac(1, 1), false)
	p.AddConstraint("lo", []*big.Rat{frac(1, 1)}, GE, frac(0, 1))
	sol, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

// TestBealeCycling is Beale's classic degenerate LP, the textbook example
// on which naive most-negative-cost pivoting cycles forever:
//
//	min  −3/4·x1 + 150·x2 − 1/50·x3 + 6·x4
//	s.t.  1/4·x1 −  60·x2 − 1/25·x3 + 9·x4 ≤ 0
//	      1/2·x1 −  90·x2 − 1/50·x3 + 3·x4 ≤ 0
//	                            x3          ≤ 1
//
// Bland's rule must terminate at the optimum −1/20, attained at
// x = (1/25, 0, 1, 0).
func TestBealeCycling(t *testing.T) {
	p := NewMinimize()
	p.AddVar("x1", frac(-3, 4), false)
	p.AddVar("x2", frac(150, 1), false)
	p.AddVar("x3", frac(-1, 50), false)
	p.AddVar("x4", frac(6, 1), false)
	p.AddConstraint("c1", []*big.Rat{frac(1, 4), frac(-60, 1), frac(-1, 25), frac(9, 1)}, LE, frac(0, 1))
	p.AddConstraint("c2", []*big.Rat{frac(1, 2), frac(-90, 1), frac(-1, 50), frac(3, 1)}, LE, frac(0, 1))
	p.AddConstraint("c3", []*big.Rat{frac(0, 1), frac(0, 1), frac(1, 1), frac(0, 1)}, LE, frac(1, 1))
	sol, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	if want := frac(-1, 20); sol.Objective.Cmp(want) != 0 {
		t.Fatalf("objective %s, want %s", sol.Objective.RatString(), want.RatString())
	}
	wantX := []*big.Rat{frac(1, 25), frac(0, 1), frac(1, 1), frac(0, 1)}
	for i, w := range wantX {
		if sol.X[i].Cmp(w) != 0 {
			t.Fatalf("x%d = %s, want %s", i+1, sol.X[i].RatString(), w.RatString())
		}
	}
}

// TestZeroVariableProblem: solving an empty problem is a caller error, not
// a crash or a vacuous optimum.
func TestZeroVariableProblem(t *testing.T) {
	p := NewMinimize()
	if _, err := p.SolveLP(); !errors.Is(err, ErrNoVars) {
		t.Fatalf("SolveLP err = %v, want ErrNoVars", err)
	}
	if _, err := p.SolveILP(); !errors.Is(err, ErrNoVars) {
		t.Fatalf("SolveILP err = %v, want ErrNoVars", err)
	}
}

// TestDegeneratePivotILP drives branch and bound over a degenerate LP
// relaxation: the Beale polytope with integrality on every variable. The
// only integral points near the LP optimum have x1 ∈ {0}, so the ILP
// optimum is 0 at the origin (x3 ≤ 1 admits x3 = 1 for −1/50, checked
// exactly).
func TestDegeneratePivotILP(t *testing.T) {
	p := NewMinimize()
	p.AddVar("x1", frac(-3, 4), true)
	p.AddVar("x2", frac(150, 1), true)
	p.AddVar("x3", frac(-1, 50), true)
	p.AddVar("x4", frac(6, 1), true)
	p.AddConstraint("c1", []*big.Rat{frac(1, 4), frac(-60, 1), frac(-1, 25), frac(9, 1)}, LE, frac(0, 1))
	p.AddConstraint("c2", []*big.Rat{frac(1, 2), frac(-90, 1), frac(-1, 50), frac(3, 1)}, LE, frac(0, 1))
	p.AddConstraint("c3", []*big.Rat{frac(0, 1), frac(0, 1), frac(1, 1), frac(0, 1)}, LE, frac(1, 1))
	sol, err := p.SolveILP()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	for i, x := range sol.X {
		if !x.IsInt() {
			t.Fatalf("x%d = %s not integral", i+1, x.RatString())
		}
	}
	if want := frac(-1, 50); sol.Objective.Cmp(want) != 0 {
		t.Fatalf("ILP objective %s, want %s", sol.Objective.RatString(), want.RatString())
	}
}
