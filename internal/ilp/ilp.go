// Package ilp is an exact integer linear program solver over rational
// arithmetic: a two-phase tableau simplex with Bland's rule for the LP
// relaxation and best-first branch and bound for integrality. It exists to
// solve the paper's Algorithm 1 (minimum block sizes under throughput
// constraints) without tolerance artifacts; all coefficients, bounds and
// solutions are big.Rat values.
//
// Problems are tiny (one variable per multiplexed stream), so the solver
// optimises for exactness and clarity, not scale.
package ilp

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // Σ coef·x ≤ rhs
	GE            // Σ coef·x ≥ rhs
	EQ            // Σ coef·x = rhs
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Constraint is one linear constraint over the problem variables.
type Constraint struct {
	Name string
	Coef []*big.Rat
	Rel  Rel
	RHS  *big.Rat
}

// Problem is a linear program with optional integrality restrictions. All
// variables are implicitly non-negative; use AddConstraint for tighter lower
// bounds.
type Problem struct {
	Minimize bool
	// MaxNodes bounds the branch-and-bound tree explored by SolveILP
	// (0 = the default of 200k nodes). When the budget runs out the solve
	// returns ErrBranchBudget.
	MaxNodes int
	names    []string
	obj      []*big.Rat
	cons     []Constraint
	integer  []bool
}

// NewMinimize returns an empty minimisation problem.
func NewMinimize() *Problem { return &Problem{Minimize: true} }

// NewMaximize returns an empty maximisation problem.
func NewMaximize() *Problem { return &Problem{Minimize: false} }

// AddVar adds a variable with the given objective coefficient; integer marks
// it integral for branch and bound. Returns the variable index.
func (p *Problem) AddVar(name string, objCoef *big.Rat, integer bool) int {
	p.names = append(p.names, name)
	p.obj = append(p.obj, new(big.Rat).Set(objCoef))
	p.integer = append(p.integer, integer)
	return len(p.names) - 1
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.names) }

// AddConstraint appends a constraint. Coef must have one entry per variable
// (shorter slices are zero-padded).
func (p *Problem) AddConstraint(name string, coef []*big.Rat, rel Rel, rhs *big.Rat) {
	c := Constraint{Name: name, Rel: rel, RHS: new(big.Rat).Set(rhs)}
	c.Coef = make([]*big.Rat, len(p.names))
	for i := range c.Coef {
		if i < len(coef) && coef[i] != nil {
			c.Coef[i] = new(big.Rat).Set(coef[i])
		} else {
			c.Coef[i] = new(big.Rat)
		}
	}
	p.cons = append(p.cons, c)
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "?"
}

// Solution is the result of SolveLP or SolveILP.
type Solution struct {
	Status    Status
	X         []*big.Rat
	Objective *big.Rat
}

func (s *Solution) String() string {
	if s.Status != Optimal {
		return s.Status.String()
	}
	parts := make([]string, len(s.X))
	for i, x := range s.X {
		parts[i] = x.RatString()
	}
	return fmt.Sprintf("obj=%s x=[%s]", s.Objective.RatString(), strings.Join(parts, " "))
}

// ErrNoVars is returned for problems without variables.
var ErrNoVars = errors.New("ilp: problem has no variables")

// SolveLP solves the LP relaxation (ignoring integrality) exactly.
func (p *Problem) SolveLP() (*Solution, error) {
	if len(p.names) == 0 {
		return nil, ErrNoVars
	}
	t, err := newTableau(p)
	if err != nil {
		return nil, err
	}
	return t.solve()
}

// SolveILP solves the problem with integrality constraints by branch and
// bound on the exact LP relaxation.
func (p *Problem) SolveILP() (*Solution, error) {
	if len(p.names) == 0 {
		return nil, ErrNoVars
	}
	anyInt := false
	for _, b := range p.integer {
		anyInt = anyInt || b
	}
	if !anyInt {
		return p.SolveLP()
	}
	bb := &brancher{base: p, maxNodes: p.MaxNodes}
	sol, err := bb.run()
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// String renders the problem for debugging.
func (p *Problem) String() string {
	var b strings.Builder
	if p.Minimize {
		b.WriteString("minimize ")
	} else {
		b.WriteString("maximize ")
	}
	for i, c := range p.obj {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%s·%s", c.RatString(), p.names[i])
	}
	b.WriteString("\n")
	for _, c := range p.cons {
		fmt.Fprintf(&b, "  %s: ", c.Name)
		for i, v := range c.Coef {
			if i > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%s·%s", v.RatString(), p.names[i])
		}
		fmt.Fprintf(&b, " %s %s\n", c.Rel, c.RHS.RatString())
	}
	return b.String()
}
