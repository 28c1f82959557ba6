package solve

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"accelshare/internal/core"
)

// FuzzSolveDifferential cross-checks Exact, the one online solver, against
// independent oracles on randomly generated problems:
//
//   - plain problems with n ≤ 6 against the paper's literal ILP;
//   - everything else against the cold Kleene oracle (coldFixedPoint),
//     when it converges within its cap.
//
// The saturation-biased inputs go to the cold oracle even when plain and
// small: on their rescaled rates the ILP's branch and bound can run for
// minutes, which would stall the fuzzer.
//
// Feasibility verdicts must agree with the oracle, and every plan Exact
// returns must pass Verify (feasible AND tight). gapRaw ≠ 0 rescales the
// rates so the exact utilisation is 1 − 10^−k, k = 1 + gapRaw mod 6: the
// saturation edge where the cold iteration crawls and rounding bites.
func FuzzSolveDifferential(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint64(1), uint8(0))
	f.Add(uint8(4), uint8(10), uint64(42), uint8(0))
	f.Add(uint8(12), uint8(40), uint64(7), uint8(0))
	f.Add(uint8(31), uint8(200), uint64(123456789), uint8(0))
	f.Add(uint8(8), uint8(255), uint64(0), uint8(0))   // heavy load: often infeasible
	f.Add(uint8(1), uint8(100), uint64(3), uint8(5))   // n = 2 at 1 − 10⁻⁶
	f.Add(uint8(5), uint8(100), uint64(9), uint8(3))   // n = 6 at 1 − 10⁻⁴
	f.Add(uint8(0), uint8(100), uint64(5), uint8(4))   // n = 1 at 1 − 10⁻⁵
	f.Add(uint8(20), uint8(100), uint64(11), uint8(2)) // n = 21 at 1 − 10⁻³
	f.Fuzz(func(t *testing.T, nRaw, loadRaw uint8, seed uint64, gapRaw uint8) {
		n := 1 + int(nRaw)%32
		// load/128 ≈ target utilisation; loadRaw > 128 drives infeasible
		// instances so both verdicts get exercised.
		load := int64(loadRaw)
		if load == 0 {
			load = 1
		}
		rng := rand.New(rand.NewSource(int64(seed)))

		sys := &core.System{
			Chain: core.Chain{
				Name:       "fuzz",
				AccelCosts: []uint64{uint64(1 + rng.Intn(8))},
				EntryCost:  uint64(1 + rng.Intn(4)),
				ExitCost:   uint64(1 + rng.Intn(4)),
				NICapacity: 2,
			},
			ClockHz: 1_000_000,
		}
		c0 := sys.Chain.C0()
		var gran []int64
		withGran := rng.Intn(2) == 0
		for i := 0; i < n; i++ {
			// Per-stream utilisation share ≈ load/(128·n), jittered ±50%,
			// so μ·c0 sums to ≈ load/128 across the set. Exact rational
			// construction: rate = ClockHz·load·jitter / (128·n·c0·100).
			jitter := int64(50 + rng.Intn(101))
			rate := big.NewRat(sys.ClockHz*load*jitter, 128*int64(n)*int64(c0)*100)
			sys.Streams = append(sys.Streams, core.Stream{
				Name:     fmt.Sprintf("f%02d", i),
				Rate:     rate,
				Reconfig: uint64(1 + rng.Intn(200)),
			})
			if withGran {
				gran = append(gran, int64(1)<<rng.Intn(4))
			}
		}
		if gapRaw != 0 {
			gap := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(1+gapRaw%6)), nil)
			target := new(big.Rat).Sub(big.NewRat(1, 1), new(big.Rat).SetFrac(big.NewInt(1), gap))
			scale := target.Quo(target, sys.Utilization())
			for i := range sys.Streams {
				sys.Streams[i].Rate.Mul(sys.Streams[i].Rate, scale)
			}
		}

		var want []int64
		var wantErr error
		if gran == nil && n <= 6 && gapRaw == 0 {
			var res *core.BlockSizeResult
			if res, wantErr = sys.ComputeBlockSizesILP(); wantErr == nil {
				want = res.Blocks
			}
		} else {
			want, wantErr = coldFixedPoint(sys, gran, 20_000)
		}
		if wantErr != nil && !errors.Is(wantErr, core.ErrInfeasible) && !errors.Is(wantErr, errOracleRounds) {
			t.Fatalf("oracle: %v", wantErr)
		}

		res, err := (&Exact{}).Solve(&Problem{Model: sys, Granularity: gran})
		if oi, ei := errors.Is(wantErr, core.ErrInfeasible), errors.Is(err, core.ErrInfeasible); oi != ei {
			t.Fatalf("verdict disagreement: oracle err=%v, exact err=%v", wantErr, err)
		}
		if errors.Is(err, core.ErrInfeasible) {
			return
		}
		if err != nil {
			t.Fatalf("exact failed on a feasible instance: %v", err)
		}
		if v := Verify(sys, gran, res.Blocks); !v.Feasible || !v.Tight {
			t.Fatalf("exact plan rejected by Verify (%+v): %v", v, res.Blocks)
		}
		if wantErr == nil && !reflect.DeepEqual(res.Blocks, want) {
			t.Fatalf("exact %v (Σ=%d) != oracle %v", res.Blocks, res.Total, want)
		}
	})
}
