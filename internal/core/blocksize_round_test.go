package core

import (
	"math/big"
	"testing"

	"accelshare/internal/buffer"
)

// TestRatCeil pins ⌈·⌉ over big.Rat across the sign and exactness edge
// cases: big.Int.Div floors toward −∞ for positive denominators (big.Rat
// keeps denominators positive), so the +1 correction must fire exactly when
// the rational is not an integer — including negative ones, where truncating
// division would already "round up".
func TestRatCeil(t *testing.T) {
	cases := []struct {
		num, den int64
		want     int64
	}{
		{0, 1, 0},
		{1, 3, 1},
		{7, 2, 4},
		{4, 1, 4},   // exact positive integer: no bump
		{8, 2, 4},   // exact after reduction
		{-1, 3, 0},  // ⌈-0.33⌉ = 0
		{-7, 2, -3}, // ⌈-3.5⌉ = -3
		{-4, 1, -4}, // exact negative integer: no bump
		{-8, 2, -4}, // exact negative after reduction
		{7, -2, -3}, // big.Rat normalises the sign into the numerator
		{1_000_001, 1000, 1001},
		{-1_000_001, 1000, -1000},
	}
	for _, c := range cases {
		if got := ratCeil(big.NewRat(c.num, c.den)); got != c.want {
			t.Errorf("ratCeil(%d/%d) = %d, want %d", c.num, c.den, got, c.want)
		}
	}
}

// TestRoundedGranularityNonMonotone reproduces the Fig. 8 effect at the
// block-sizing level: solving the same stream at two granularities, the
// COARSER granularity yields a larger block (η = 5 instead of the minimal
// η = 4) that nevertheless needs a SMALLER input buffer, because the
// classical minimum capacity p + c − gcd(p, c) dips wherever the burst
// divides the block. Smallest blocks are not smallest memory.
func TestRoundedGranularityNonMonotone(t *testing.T) {
	newSys := func() *System {
		return &System{
			Chain: Chain{
				Name:       "fig8",
				AccelCosts: []uint64{1},
				EntryCost:  15,
				ExitCost:   1,
				NICapacity: 2,
			},
			ClockHz: 1,
			Streams: []Stream{
				// η ≥ μ(Rs + c0(η+2)) = (80 + 15η)/35 has least solution η = 4.
				{Name: "s", Rate: big.NewRat(1, 35), Reconfig: 50, ProducerBurst: 5},
			},
		}
	}

	fine, err := newSys().ComputeBlockSizes(1)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := newSys().ComputeBlockSizes(5)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Blocks[0] != 4 {
		t.Fatalf("granularity 1: η = %d, want 4", fine.Blocks[0])
	}
	if coarse.Blocks[0] != 5 {
		t.Fatalf("granularity 5: η = %d, want 5", coarse.Blocks[0])
	}
	const burst = 5
	capFine := buffer.ClassicalMinCapacity(burst, fine.Blocks[0])
	capCoarse := buffer.ClassicalMinCapacity(burst, coarse.Blocks[0])
	if capFine != 8 || capCoarse != 5 {
		t.Fatalf("capacities α(4) = %d, α(5) = %d, want 8 and 5", capFine, capCoarse)
	}
	if capCoarse >= capFine {
		t.Errorf("non-monotonicity lost: larger block η=%d needs %d ≥ %d samples",
			coarse.Blocks[0], capCoarse, capFine)
	}
}

// TestRoundedTwoGranularitiesMultiStream checks the rounded solver on a
// shared chain: coarsening one stream's granularity grows every LFP
// component consistently (the operator stays monotone), and each result is
// still a fixed point of its own rounded operator.
func TestRoundedTwoGranularitiesMultiStream(t *testing.T) {
	newSys := func() *System {
		return &System{
			Chain: Chain{
				Name:       "shared",
				AccelCosts: []uint64{1},
				EntryCost:  15,
				ExitCost:   1,
				NICapacity: 2,
			},
			ClockHz: 1,
			Streams: []Stream{
				{Name: "a", Rate: big.NewRat(1, 75), Reconfig: 50},
				{Name: "b", Rate: big.NewRat(1, 75), Reconfig: 50},
				{Name: "c", Rate: big.NewRat(1, 300), Reconfig: 50},
			},
		}
	}
	fine, err := newSys().ComputeBlockSizes(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := newSys().ComputeBlockSizes(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Blocks[0]%8 != 0 {
		t.Errorf("stream a block %d not a multiple of 8", coarse.Blocks[0])
	}
	for i := range fine.Blocks {
		if coarse.Blocks[i] < fine.Blocks[i] {
			t.Errorf("stream %d: coarse block %d below unconstrained minimum %d",
				i, coarse.Blocks[i], fine.Blocks[i])
		}
	}
	// Both assignments must satisfy Eq. 6 on a fresh system.
	for _, blocks := range [][]int64{fine.Blocks, coarse.Blocks} {
		if !newSys().FeasibleBlocks(blocks) {
			t.Errorf("assignment %v infeasible", blocks)
		}
	}
}
