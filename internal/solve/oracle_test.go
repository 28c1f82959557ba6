package solve

import (
	"errors"
	"math/big"

	"accelshare/internal/core"
)

// errOracleRounds reports that the cold oracle ran out of rounds; the
// instance is then judged by Verify alone.
var errOracleRounds = errors.New("cold oracle: round cap")

// coldFixedPoint is the reference Algorithm 1 solver the kernel replaced:
// plain Jacobi Kleene iteration of the granularity-rounded operator
//
//	F(η)_s = roundUp(max(1, ⌈μs·(c1 + c0·Σ_i(ηi+2))⌉), g_s)
//
// from all-ones, in big.Rat arithmetic, with no closed-form start and no
// sharing of code with core's kernel. Starting below the least fixed point,
// it climbs to it; near saturation that takes millions of rounds, so the
// cap is the caller's.
func coldFixedPoint(m *core.System, granularity []int64, maxRounds int) ([]int64, error) {
	if m.Utilization().Cmp(big.NewRat(1, 1)) >= 0 {
		return nil, core.ErrInfeasible
	}
	gran := func(i int) int64 {
		if granularity == nil || granularity[i] < 1 {
			return 1
		}
		return granularity[i]
	}
	c0 := new(big.Rat).SetInt64(int64(m.Chain.C0()))
	c1 := new(big.Rat).SetInt64(int64(m.C1()))
	eta := make([]int64, len(m.Streams))
	for i := range eta {
		eta[i] = gran(i)
	}
	for round := 0; round < maxRounds; round++ {
		sum := new(big.Rat)
		for _, b := range eta {
			sum.Add(sum, new(big.Rat).SetInt64(b+2))
		}
		base := new(big.Rat).Add(c1, sum.Mul(sum, c0))
		next := make([]int64, len(eta))
		changed := false
		for i := range eta {
			rhs := new(big.Rat).Mul(base, m.RatePerCycle(i))
			q := new(big.Int).Div(rhs.Num(), rhs.Denom())
			if !rhs.IsInt() {
				q.Add(q, big.NewInt(1))
			}
			v := max(q.Int64(), 1)
			if g := gran(i); v%g != 0 {
				v += g - v%g
			}
			next[i] = v
			changed = changed || v != eta[i]
		}
		eta = next
		if !changed {
			return eta, nil
		}
	}
	return nil, errOracleRounds
}
