package core

import (
	"errors"
	"fmt"
	"math/big"

	"accelshare/internal/ilp"
)

// BlockSizeResult is the outcome of ComputeBlockSizes.
type BlockSizeResult struct {
	// Blocks[i] is the minimum ηs for stream i.
	Blocks []int64
	// Total is Σ ηs, Algorithm 1's objective.
	Total int64
	// Rounds documents the fixed-point iteration count (informational).
	Rounds int
}

// blockConstraintHolds checks Eq. 6 for stream i at the given assignment:
//
//	ηs − c0·μs·Σ_{i∈S}(ηi+2) ≥ μs·c1
//
// with μs in samples/cycle and c0, c1 in cycles.
func (s *System) blockConstraintHolds(blocks []int64, i int) bool {
	c0 := new(big.Rat).SetInt64(int64(s.Chain.C0()))
	c1 := new(big.Rat).SetInt64(int64(s.C1()))
	sum := new(big.Rat)
	for _, b := range blocks {
		sum.Add(sum, new(big.Rat).SetInt64(b+2))
	}
	mu := s.RatePerCycle(i)
	rhs := new(big.Rat).Add(c1, new(big.Rat).Mul(c0, sum))
	rhs.Mul(rhs, mu)
	return new(big.Rat).SetInt64(blocks[i]).Cmp(rhs) >= 0
}

// FeasibleBlocks reports whether the assignment satisfies Eq. 6 for every
// stream.
func (s *System) FeasibleBlocks(blocks []int64) bool {
	for i := range s.Streams {
		if !s.blockConstraintHolds(blocks, i) {
			return false
		}
	}
	return true
}

// ComputeBlockSizesILP implements Algorithm 1 directly: an exact ILP
//
//	minimise   Σ ηs
//	subject to ∀s: ηs − c0·μs·Σ_i(ηi+2) ≥ μs·c1,  ηs ≥ 1 integer
//
// where c0 = max(ε, ρA, δ) and c1 = Σ Ri (see C1 for why the sum).
func (s *System) ComputeBlockSizesILP() (*BlockSizeResult, error) {
	return s.ComputeBlockSizesILPBudget(0)
}

// ComputeBlockSizesILPBudget is ComputeBlockSizesILP under a branch-and-
// bound node budget (0 = the solver default). When the budget runs out the
// underlying ilp.ErrBranchBudget is returned; online admission control
// catches it and falls back to ComputeBlockSizesWarm, so a hard re-solve
// can never stall the control plane.
func (s *System) ComputeBlockSizesILPBudget(maxNodes int) (*BlockSizeResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Utilization().Cmp(big.NewRat(1, 1)) >= 0 {
		return nil, ErrInfeasible
	}
	n := len(s.Streams)
	one := big.NewRat(1, 1)
	p := ilp.NewMinimize()
	p.MaxNodes = maxNodes
	for i := range s.Streams {
		p.AddVar("eta."+s.Streams[i].Name, one, true)
	}
	c0 := new(big.Rat).SetInt64(int64(s.Chain.C0()))
	c1 := new(big.Rat).SetInt64(int64(s.C1()))
	for i := range s.Streams {
		mu := s.RatePerCycle(i)
		muc0 := new(big.Rat).Mul(mu, c0)
		coef := make([]*big.Rat, n)
		for j := range coef {
			coef[j] = new(big.Rat).Neg(muc0)
		}
		coef[i] = new(big.Rat).Sub(one, muc0)
		// RHS: μs·c1 + μs·c0·2n (moving the constant +2 terms right).
		rhs := new(big.Rat).Mul(mu, c1)
		rhs.Add(rhs, new(big.Rat).Mul(muc0, new(big.Rat).SetInt64(int64(2*n))))
		p.AddConstraint("thr."+s.Streams[i].Name, coef, ilp.GE, rhs)
	}
	for i := range s.Streams {
		coef := make([]*big.Rat, n)
		for j := range coef {
			coef[j] = new(big.Rat)
		}
		coef[i] = one
		p.AddConstraint("pos."+s.Streams[i].Name, coef, ilp.GE, one)
	}
	sol, err := p.SolveILP()
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case ilp.Infeasible:
		return nil, ErrInfeasible
	case ilp.Unbounded:
		return nil, fmt.Errorf("core: block-size ILP unbounded (internal error)")
	}
	res := &BlockSizeResult{Blocks: make([]int64, n)}
	for i := range res.Blocks {
		if !sol.X[i].IsInt() || !sol.X[i].Num().IsInt64() {
			return nil, fmt.Errorf("core: non-integral ILP solution %v", sol.X[i])
		}
		res.Blocks[i] = sol.X[i].Num().Int64()
		res.Total += res.Blocks[i]
	}
	return res, nil
}

// ComputeBlockSizesFixedPoint computes the same minimum block sizes as the
// ILP by Kleene iteration of the monotone operator
//
//	F(η)_s = max(1, ⌈μs·(c1 + c0·Σ_i(ηi+2))⌉)
//
// An assignment is feasible iff η ≥ F(η) componentwise, so by Knaster-
// Tarski the least fixed point is the componentwise-minimal feasible point —
// which simultaneously minimises Σηs. Utilisation ≥ 1 is ErrInfeasible; an
// iteration still climbing after its round cap returns ErrSolverBudget,
// since running out of rounds proves nothing about feasibility.
func (s *System) ComputeBlockSizesFixedPoint() (*BlockSizeResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Utilization().Cmp(big.NewRat(1, 1)) >= 0 {
		return nil, ErrInfeasible
	}
	n := len(s.Streams)
	c0 := new(big.Rat).SetInt64(int64(s.Chain.C0()))
	c1 := new(big.Rat).SetInt64(int64(s.C1()))
	eta := make([]int64, n)
	for i := range eta {
		eta[i] = 1
	}
	const maxRounds = 10_000
	for round := 1; round <= maxRounds; round++ {
		sum := new(big.Rat)
		for _, b := range eta {
			sum.Add(sum, new(big.Rat).SetInt64(b+2))
		}
		changed := false
		next := make([]int64, n)
		for i := range s.Streams {
			rhs := new(big.Rat).Add(c1, new(big.Rat).Mul(c0, sum))
			rhs.Mul(rhs, s.RatePerCycle(i))
			v := ratCeil(rhs)
			if v < 1 {
				v = 1
			}
			next[i] = v
			if v != eta[i] {
				changed = true
			}
		}
		// Jacobi update: recompute all streams against the previous vector,
		// preserving the monotone-iteration argument.
		copy(eta, next)
		if !changed {
			res := &BlockSizeResult{Blocks: eta, Rounds: round}
			for _, b := range eta {
				res.Total += b
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("core: fixed point did not converge in %d rounds: %w", maxRounds, ErrSolverBudget)
}

// ComputeBlockSizes computes minimum block sizes with the fixed-point
// solver, cross-checks them against the exact ILP, stores them into the
// streams and returns the result. The two solvers implement independent
// algorithms; a mismatch indicates a bug and is reported as an error.
func (s *System) ComputeBlockSizes() (*BlockSizeResult, error) {
	fp, err := s.ComputeBlockSizesFixedPoint()
	if err != nil {
		return nil, err
	}
	il, err := s.ComputeBlockSizesILP()
	if err != nil {
		return nil, err
	}
	for i := range fp.Blocks {
		if fp.Blocks[i] != il.Blocks[i] {
			return nil, fmt.Errorf("core: solver disagreement on %q: fixed point %d vs ILP %d",
				s.Streams[i].Name, fp.Blocks[i], il.Blocks[i])
		}
	}
	for i := range s.Streams {
		s.Streams[i].Block = fp.Blocks[i]
	}
	return fp, nil
}

// ComputeBlockSizesRounded computes minimum block sizes under the extra
// constraint that ηs is a multiple of granularity[s]. Implementations need
// this when the chain down-samples: a block must yield an integral number
// of output samples so the exit gateway can detect the end of the block
// (the paper's own sizes obey this: 10136 = 8·1267). The operator
// F'(η)_s = roundUp(F(η)_s, g_s) is still monotone, so Kleene iteration
// yields the least feasible multiple-constrained vector.
func (s *System) ComputeBlockSizesRounded(granularity []int64) (*BlockSizeResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(granularity) != len(s.Streams) {
		return nil, fmt.Errorf("core: %d granularities for %d streams", len(granularity), len(s.Streams))
	}
	if s.Utilization().Cmp(big.NewRat(1, 1)) >= 0 {
		return nil, ErrInfeasible
	}
	n := len(s.Streams)
	c0 := new(big.Rat).SetInt64(int64(s.Chain.C0()))
	c1 := new(big.Rat).SetInt64(int64(s.C1()))
	roundUp := func(v, g int64) int64 {
		if g <= 1 {
			return v
		}
		if rem := v % g; rem != 0 {
			v += g - rem
		}
		return v
	}
	eta := make([]int64, n)
	for i := range eta {
		eta[i] = roundUp(1, granularity[i])
	}
	const maxRounds = 1_000_000
	for round := 1; round <= maxRounds; round++ {
		sum := new(big.Rat)
		for _, b := range eta {
			sum.Add(sum, new(big.Rat).SetInt64(b+2))
		}
		changed := false
		next := make([]int64, n)
		for i := range s.Streams {
			rhs := new(big.Rat).Add(c1, new(big.Rat).Mul(c0, sum))
			rhs.Mul(rhs, s.RatePerCycle(i))
			v := ratCeil(rhs)
			if v < 1 {
				v = 1
			}
			v = roundUp(v, granularity[i])
			next[i] = v
			if v != eta[i] {
				changed = true
			}
		}
		copy(eta, next)
		if !changed {
			res := &BlockSizeResult{Blocks: eta, Rounds: round}
			for _, b := range eta {
				res.Total += b
			}
			for i := range s.Streams {
				s.Streams[i].Block = eta[i]
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("core: rounded fixed point did not converge: %w", ErrSolverBudget)
}

// ErrSolverBudget is returned by the fixed-point solvers (FixedPoint,
// Rounded, Warm) when their round cap runs out before the fixed point is
// reached. It is distinct from ErrInfeasible: the constraints may well be
// satisfiable, the solver was just not given enough rounds to prove it —
// admission control reports the two outcomes with different rejection
// reasons.
var ErrSolverBudget = errors.New("core: block-size solver budget exhausted")

// ComputeBlockSizesWarm is the incremental Algorithm 1: Kleene iteration of
// the (granularity-rounded) operator F warm-started from a known lower
// bound instead of from all-ones. Online admission control uses it to
// re-solve after a stream-set change in a handful of rounds: when streams
// are only ADDED to the set the operator grows pointwise, so the previous
// least fixed point is still ≤ the new one and is a sound warm start (after
// a removal the LFP shrinks, so pass nil and restart from ones).
//
//   - start, when non-nil, seeds the iteration (entries are clamped up to 1);
//     it MUST be ≤ the least fixed point componentwise or the iteration can
//     land on a non-minimal fixed point.
//   - granularity, when non-nil, constrains ηs to multiples of
//     granularity[s] (cf. ComputeBlockSizesRounded); nil means unconstrained.
//   - maxRounds bounds the iteration (0 = 10_000); exhausting it returns
//     ErrSolverBudget.
//
// Unlike ComputeBlockSizes*, the result is NOT stored into the streams —
// the caller decides whether (and when) to apply the new configuration.
func (s *System) ComputeBlockSizesWarm(start, granularity []int64, maxRounds int) (*BlockSizeResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := len(s.Streams)
	if start != nil && len(start) != n {
		return nil, fmt.Errorf("core: %d warm-start entries for %d streams", len(start), n)
	}
	if granularity != nil && len(granularity) != n {
		return nil, fmt.Errorf("core: %d granularities for %d streams", len(granularity), n)
	}
	if s.Utilization().Cmp(big.NewRat(1, 1)) >= 0 {
		return nil, ErrInfeasible
	}
	if maxRounds <= 0 {
		maxRounds = 10_000
	}
	roundUp := func(v int64, i int) int64 {
		if granularity == nil || granularity[i] <= 1 {
			return v
		}
		if rem := v % granularity[i]; rem != 0 {
			v += granularity[i] - rem
		}
		return v
	}
	c0 := new(big.Rat).SetInt64(int64(s.Chain.C0()))
	c1 := new(big.Rat).SetInt64(int64(s.C1()))
	eta := make([]int64, n)
	for i := range eta {
		v := int64(1)
		if start != nil && start[i] > v {
			v = start[i]
		}
		eta[i] = roundUp(v, i)
	}
	for round := 1; round <= maxRounds; round++ {
		sum := new(big.Rat)
		for _, b := range eta {
			sum.Add(sum, new(big.Rat).SetInt64(b+2))
		}
		changed := false
		next := make([]int64, n)
		for i := range s.Streams {
			rhs := new(big.Rat).Add(c1, new(big.Rat).Mul(c0, sum))
			rhs.Mul(rhs, s.RatePerCycle(i))
			v := ratCeil(rhs)
			if v < 1 {
				v = 1
			}
			v = roundUp(v, i)
			// A warm start above F(start) must not shrink: the iterate stays
			// an upper set of the seed, keeping convergence monotone.
			if v < eta[i] {
				v = eta[i]
			}
			next[i] = v
			if v != eta[i] {
				changed = true
			}
		}
		copy(eta, next)
		if !changed {
			res := &BlockSizeResult{Blocks: eta, Rounds: round}
			for _, b := range eta {
				res.Total += b
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("core: no fixed point within %d rounds: %w", maxRounds, ErrSolverBudget)
}

// ratCeil returns ⌈r⌉ as int64. big.Int.Div floors (for the always-positive
// denominator), so non-integral values are bumped by one.
func ratCeil(r *big.Rat) int64 {
	q := new(big.Int).Div(r.Num(), r.Denom())
	if !r.IsInt() {
		q.Add(q, big.NewInt(1))
	}
	return q.Int64()
}
