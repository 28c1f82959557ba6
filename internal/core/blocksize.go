package core

import (
	"errors"
	"fmt"
	"math/big"

	"accelshare/internal/ilp"
)

// BlockSizeResult is the outcome of one Algorithm 1 solve.
type BlockSizeResult struct {
	// Blocks[i] is the minimum ηs for stream i.
	Blocks []int64
	// Total is Σ ηs, Algorithm 1's objective.
	Total int64
	// Rounds counts the kernel's rounds (0 for the ILP).
	Rounds int
}

// ErrSolverBudget is returned when the kernel's round cap runs out before
// the fixed point is reached. It is distinct from ErrInfeasible: the
// constraints may well be satisfiable, the solver just did not prove it —
// admission control reports the two outcomes with different rejection
// reasons.
var ErrSolverBudget = errors.New("core: block-size solver budget exhausted")

// kernelRounds caps the kernel's rounds. They grow as utilisation nears 1:
// a few dozen at U = 0.99, tens of thousands within 10⁻⁶ of saturation on
// rates with unrelated denominators (EXPERIMENTS E17), where the cap keeps
// one solve from stalling a control plane.
const kernelRounds = 100_000

// FeasibleBlocks reports whether the assignment satisfies Eq. 6 for every
// stream:
//
//	ηs − c0·μs·Σ_{i∈S}(ηi+2) ≥ μs·c1
//
// with μs in samples/cycle and c0, c1 in cycles (η ≥ F(η) componentwise).
func (s *System) FeasibleBlocks(blocks []int64) bool {
	f, err := s.BlockOperator(blocks, nil)
	if err != nil {
		return false
	}
	for i, b := range blocks {
		if b < f[i] {
			return false
		}
	}
	return true
}

// ComputeBlockSizesILP implements Algorithm 1 literally: an exact ILP
//
//	minimise   Σ ηs
//	subject to ∀s: ηs − c0·μs·Σ_i(ηi+2) ≥ μs·c1,  ηs ≥ 1 integer
//
// where c0 = max(ε, ρA, δ) and c1 = Σ Ri (see C1 for why the sum). It is
// the paper's formulation, kept for the E4/A4 reproduction and as the test
// oracle of the kernel; nothing online calls it.
func (s *System) ComputeBlockSizesILP() (*BlockSizeResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Utilization().Cmp(big.NewRat(1, 1)) >= 0 {
		return nil, ErrInfeasible
	}
	n := len(s.Streams)
	one := big.NewRat(1, 1)
	p := ilp.NewMinimize()
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

// ComputeBlockSizes solves Algorithm 1 with the kernel (SolveBlockSizes,
// cold), stores the blocks into the streams and returns the result. An
// optional granularity constrains ηs to multiples of granularity[s]: a
// down-sampling chain needs blocks that yield an integral number of output
// samples so the exit gateway can detect the end of a block (the paper's
// own sizes obey this: 10136 = 8·1267).
func (s *System) ComputeBlockSizes(granularity ...int64) (*BlockSizeResult, error) {
	if len(granularity) == 0 {
		granularity = nil
	}
	res, err := s.SolveBlockSizes(nil, granularity)
	if err != nil {
		return nil, err
	}
	for i := range s.Streams {
		s.Streams[i].Block = res.Blocks[i]
	}
	return res, nil
}

// SolveBlockSizes is the one Algorithm 1 solver, the kernel every online
// path calls. It computes the least fixed point of the granularity-rounded
// operator
//
//	F(η)_s = roundUp(max(1, ⌈μs·(c1 + c0·Σ_i(ηi+2))⌉), g_s)
//
// An assignment is feasible iff η ≥ F(η), and F is monotone, so by
// Knaster–Tarski the least fixed point is the componentwise-minimal
// feasible point — which also minimises Σηs. F depends on η only through
// T = Σηi, so the solve is a search for one integer: the least T with
// Σ_s F_s(T) ≤ T, whose F(T) is the answer. Each round takes the current
// lower bound η and jumps T to the least integer t with
//
//	Σ_s max(ηs, μs·(c1 + c0·(t + 2n))) ≤ t
//
// (each component stays at least its current value and at least its real
// requirement, so no T below t can be feasible), then raises η to F(t).
// From η = 0 the first jump lands on the closed form
// ⌈T*⌉, T* = U·(c1 + 2n·c0)/(1 − c0·U), U = Σμs, below which no feasible
// assignment exists. The left-hand side is convex and piecewise linear in
// t with slope below 1, so the jump is a few exact Newton steps. A round
// never advances less than plain Kleene iteration, and near saturation,
// where a slowly varying component makes Kleene crawl one unit of T per
// round, it skips the whole crawl at once.
//
//   - start, when non-nil, is a floor the answer may not go below: η
//     starts there and only rises. With start ≤ lfp (the Incremental warm
//     start) the result is the least fixed point; any other start yields
//     the least feasible assignment ≥ start.
//   - granularity, when non-nil, constrains ηs to multiples of
//     granularity[s] (entries < 1 count as 1).
//
// Utilisation c0·U ≥ 1 is ErrInfeasible; a round cap reached before the
// fixed point is ErrSolverBudget. The result is not stored into the
// streams — the caller decides whether and when to apply it.
func (s *System) SolveBlockSizes(start, granularity []int64) (*BlockSizeResult, error) {
	return s.solveBlockSizes(start, granularity, kernelRounds)
}

// solveBlockSizes is SolveBlockSizes under an explicit round cap.
func (s *System) solveBlockSizes(start, granularity []int64, maxRounds int) (*BlockSizeResult, error) {
	op, err := s.newOperator(granularity)
	if err != nil {
		return nil, err
	}
	n := len(s.Streams)
	if start != nil && len(start) != n {
		return nil, fmt.Errorf("core: %d warm-start entries for %d streams", len(start), n)
	}
	// Utilisation c0·U = c0·Σm/D.
	if op.x.Mul(&op.mSum, &op.c0).Cmp(&op.d) >= 0 {
		return nil, ErrInfeasible
	}
	eta := make([]int64, n)
	for i := range start {
		eta[i] = roundUpTo(max(start[i], 0), op.gran(i))
	}
	for round := 1; round <= maxRounds; round++ {
		op.jump(eta)
		if err := op.raise(eta); err != nil {
			return nil, err
		}
		// Done once F(t) sums to at most t: then t is the least such T
		// and the sum equals it.
		op.sum(eta)
		if op.w.Cmp(&op.t) <= 0 {
			if !op.w.IsInt64() {
				return nil, errBlockOverflow
			}
			return &BlockSizeResult{Blocks: eta, Total: op.w.Int64(), Rounds: round}, nil
		}
	}
	return nil, fmt.Errorf("core: no fixed point within %d rounds: %w", maxRounds, ErrSolverBudget)
}

// BlockOperator applies the granularity-rounded Algorithm 1 operator once:
// it returns F(blocks), evaluated with exact integer arithmetic. An
// assignment is feasible iff blocks ≥ F(blocks); it is a fixed point iff
// they are equal.
func (s *System) BlockOperator(blocks, granularity []int64) ([]int64, error) {
	op, err := s.newOperator(granularity)
	if err != nil {
		return nil, err
	}
	if len(blocks) != len(s.Streams) {
		return nil, fmt.Errorf("core: %d blocks for %d streams", len(blocks), len(s.Streams))
	}
	op.sum(blocks)
	op.t.Set(&op.w)
	f := make([]int64, len(blocks))
	if err := op.raise(f); err != nil {
		return nil, err
	}
	return f, nil
}

var (
	bigOne           = big.NewInt(1)
	errBlockOverflow = errors.New("core: block size overflows int64")
)

// operator is Algorithm 1's operator in integer form. Over the common
// denominator D of the rates, μs = m[s]/D samples per cycle, and the
// requirement of stream s at T = Σηi is m[s]·(k + c0·T)/D with the integer
// k = c1 + 2n·c0. The scratch values are reused across rounds, so a solve
// allocates O(n), not O(n·rounds).
type operator struct {
	c0, k, d big.Int
	m        []big.Int
	mSum     big.Int
	// granularity is the caller's, nil for all ones.
	granularity []int64
	// t is the current T (jump writes it last) and w holds Σeta after
	// sum; the rest is scratch.
	t, w, p, q, x, y, e, ma, num, den big.Int
}

func (s *System) newOperator(granularity []int64) (*operator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := len(s.Streams)
	if granularity != nil && len(granularity) != n {
		return nil, fmt.Errorf("core: %d granularities for %d streams", len(granularity), n)
	}
	op := &operator{m: make([]big.Int, n), granularity: granularity}
	op.c0.SetUint64(s.Chain.C0())
	op.k.SetInt64(2 * int64(n))
	op.k.Mul(&op.k, &op.c0)
	op.k.Add(&op.k, new(big.Int).SetUint64(s.C1()))
	// μs = Rate/ClockHz: D = lcm of the rate denominators, times ClockHz.
	op.d.SetInt64(1)
	for i := range s.Streams {
		den := s.Streams[i].Rate.Denom()
		if op.x.Rem(&op.d, den).Sign() == 0 {
			continue
		}
		op.x.GCD(nil, nil, &op.d, den)
		op.y.Quo(den, &op.x)
		op.d.Mul(&op.d, &op.y)
	}
	for i := range s.Streams {
		r := s.Streams[i].Rate
		op.m[i].Mul(op.x.Quo(&op.d, r.Denom()), r.Num())
		op.mSum.Add(&op.mSum, &op.m[i])
	}
	op.d.Mul(&op.d, big.NewInt(s.ClockHz))
	return op, nil
}

// gran returns stream i's effective granularity.
func (op *operator) gran(i int) int64 {
	if op.granularity == nil || op.granularity[i] < 1 {
		return 1
	}
	return op.granularity[i]
}

// sum sets op.w = Σ eta.
func (op *operator) sum(eta []int64) {
	op.w.SetInt64(0)
	for _, b := range eta {
		op.w.Add(&op.w, op.x.SetInt64(b))
	}
}

// raise evaluates F at T = op.t and lifts every eta entry that lies below
// its component.
func (op *operator) raise(eta []int64) error {
	op.w.Mul(&op.c0, &op.t)
	op.w.Add(&op.w, &op.k)
	for i := range eta {
		op.x.Mul(&op.m[i], &op.w)
		op.x.QuoRem(&op.x, &op.d, &op.y)
		if op.y.Sign() != 0 {
			op.x.Add(&op.x, bigOne)
		}
		if !op.x.IsInt64() {
			return errBlockOverflow
		}
		eta[i] = max(eta[i], roundUpTo(max(op.x.Int64(), 1), op.gran(i)))
	}
	return nil
}

// jump sets op.t to the least integer t ≥ Σeta with
// ψ(t) = Σ_s max(eta_s, μs·(k + c0·t)) ≤ t. ψ is convex and piecewise
// linear with slope ≤ c0·U < 1, so Newton's method from the left never
// overshoots the root: on the piece where the streams in A follow their
// requirement and the rest stay at eta, ψ(t) = E + M·(k + c0·t)/D, with
// E = Σ_{s∉A} eta_s and M = Σ_{s∈A} m[s], whose line meets t at
// (E·D + M·k)/(D − M·c0). A grows with t, so at most n+1 steps are
// taken. t is held as the fraction p/q.
func (op *operator) jump(eta []int64) {
	op.sum(eta)
	op.p.Set(&op.w)
	op.q.SetInt64(1)
	active := -1
	for {
		// w = k·q + c0·p, so stream s follows its requirement at t = p/q
		// iff m[s]·w ≥ eta_s·D·q.
		op.w.Mul(&op.k, &op.q)
		op.w.Add(&op.w, op.x.Mul(&op.c0, &op.p))
		op.t.Mul(&op.d, &op.q)
		op.e.SetInt64(0)
		op.ma.SetInt64(0)
		count := 0
		for i := range eta {
			op.x.Mul(&op.m[i], &op.w)
			op.y.Mul(&op.t, op.y.SetInt64(eta[i]))
			if op.x.Cmp(&op.y) >= 0 {
				op.ma.Add(&op.ma, &op.m[i])
				count++
			} else {
				op.e.Add(&op.e, op.x.SetInt64(eta[i]))
			}
		}
		if count == active {
			break // same piece: p/q is its root
		}
		active = count
		op.num.Mul(&op.e, &op.d)
		op.num.Add(&op.num, op.x.Mul(&op.ma, &op.k))
		op.den.Sub(&op.d, op.x.Mul(&op.ma, &op.c0))
		// Root at or left of t: ψ(t) ≤ t already.
		if op.x.Mul(&op.num, &op.q).Cmp(op.y.Mul(&op.p, &op.den)) <= 0 {
			break
		}
		op.p.Set(&op.num)
		op.q.Set(&op.den)
	}
	// op.t = ⌈p/q⌉.
	op.t.QuoRem(&op.p, &op.q, &op.y)
	if op.y.Sign() != 0 {
		op.t.Add(&op.t, bigOne)
	}
}

// roundUpTo rounds v up to the next multiple of g (g ≤ 1 is identity).
func roundUpTo(v, g int64) int64 {
	if g <= 1 {
		return v
	}
	if rem := v % g; rem > 0 {
		v += g - rem
	}
	return v
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
