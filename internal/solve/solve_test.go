package solve

import (
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"accelshare/internal/core"
)

// testSystem builds an n-stream chain whose exact utilisation stays below
// 1: with c0 = 4 cycles/sample and rates around (load/n) samples/cycle the
// utilisation is ≈ load·4 < 1 for load < 1/4.
func testSystem(n int, loadNum, loadDen int64) *core.System {
	sys := &core.System{
		Chain: core.Chain{
			Name:       "solve-test",
			AccelCosts: []uint64{4},
			EntryCost:  1,
			ExitCost:   2,
			NICapacity: 2,
		},
		ClockHz: 1_000_000,
	}
	for i := 0; i < n; i++ {
		// Vary rates slightly so blocks differ across streams; keep the sum
		// of μ·c0 at loadNum/loadDen · 4.
		num := loadNum * int64(1_000_000) * int64(3+i%5)
		den := loadDen * int64(n) * 4
		sys.Streams = append(sys.Streams, core.Stream{
			Name:     fmt.Sprintf("s%03d", i),
			Rate:     big.NewRat(num, den),
			Reconfig: uint64(50 + 10*(i%7)),
		})
	}
	return sys
}

func mustSolve(t *testing.T, s Solver, p *Problem) *Result {
	t.Helper()
	res, err := s.Solve(p)
	if err != nil {
		t.Fatalf("%s.Solve: %v", s.Name(), err)
	}
	return res
}

// nearSaturationSystem is two streams at utilisation 0.999995: the cold
// iteration needs millions of rounds, the ILP finds Σ = 4 799 976.
func nearSaturationSystem() *core.System {
	return &core.System{
		Chain:   core.Chain{Name: "sat", AccelCosts: []uint64{1}, EntryCost: 1, ExitCost: 1, NICapacity: 2},
		ClockHz: 1_000_000,
		Streams: []core.Stream{
			{Name: "a", Rate: big.NewRat(999_995, 2), Reconfig: 10},
			{Name: "b", Rate: big.NewRat(999_995, 2), Reconfig: 10},
		},
	}
}

// TestExactMatchesLegacyILP holds Exact, the one online solver, to the
// paper's literal ILP on plain problems small enough for it, and to the
// cold Kleene oracle on large and granular ones. Every answer must be
// exact (Verify: feasible and tight) and carry PathWarm, whichever stack
// runs it; infeasibility must agree with the oracle.
func TestExactMatchesLegacyILP(t *testing.T) {
	production := &Incremental{Inner: &Exact{}}
	cases := []struct {
		name      string
		sys       *core.System
		gran      []int64
		solver    Solver
		ilp       bool // oracle: the ILP; otherwise the cold fixed point
		wantTotal int64
	}{
		{name: "plain_n1", sys: testSystem(1, 1, 8), ilp: true},
		{name: "plain_n3", sys: testSystem(3, 1, 8), ilp: true},
		{name: "plain_n8", sys: testSystem(8, 1, 8), ilp: true},
		{name: "plain_n2_load1_6", sys: testSystem(2, 1, 6), ilp: true},
		{name: "plain_n5_load1_6", sys: testSystem(5, 1, 6), ilp: true},
		{name: "plain_n12_load1_6", sys: testSystem(12, 1, 6), ilp: true},
		{name: "production_n4", sys: testSystem(4, 1, 8), solver: production, ilp: true},
		{name: "plain_n6", sys: testSystem(6, 1, 8)},
		{name: "production_n32", sys: testSystem(32, 1, 6), solver: production},
		{name: "plain_n40", sys: testSystem(40, 1, 6)},
		{name: "plain_n120", sys: testSystem(120, 1, 6)},
		{name: "granular_n4", sys: testSystem(4, 1, 8), gran: []int64{4, 1, 8, 2}},
		{name: "granular_n9", sys: testSystem(9, 1, 6), gran: []int64{1, 2, 4, 8, 1, 3, 5, 1, 2}},
		{name: "infeasible_n4", sys: testSystem(4, 2, 1), ilp: true}, // utilisation 8
		{name: "infeasible_granular_n4", sys: testSystem(4, 2, 1), gran: []int64{8, 8, 8, 8}},
		{name: "near_saturation", sys: nearSaturationSystem(), ilp: true, wantTotal: 4_799_976},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want []int64
			var wantErr error
			if c.ilp {
				var res *core.BlockSizeResult
				if res, wantErr = c.sys.ComputeBlockSizesILP(); wantErr == nil {
					want = res.Blocks
				}
			} else {
				want, wantErr = coldFixedPoint(c.sys, c.gran, 100_000)
			}
			if wantErr != nil && !errors.Is(wantErr, core.ErrInfeasible) {
				t.Fatalf("oracle: %v", wantErr)
			}
			s := c.solver
			if s == nil {
				s = &Exact{}
			}
			res, err := s.Solve(&Problem{Model: c.sys, Granularity: c.gran})
			if wantErr != nil {
				if !errors.Is(err, core.ErrInfeasible) {
					t.Fatalf("err = %v, oracle says infeasible", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if !reflect.DeepEqual(res.Blocks, want) {
				t.Fatalf("%s %v (Σ=%d) != oracle %v", s.Name(), res.Blocks, res.Total, want)
			}
			if c.wantTotal != 0 && res.Total != c.wantTotal {
				t.Fatalf("Σ = %d, want %d", res.Total, c.wantTotal)
			}
			if res.Path != PathWarm {
				t.Fatalf("path %q, want %q", res.Path, PathWarm)
			}
			if v := Verify(c.sys, c.gran, res.Blocks); !v.Feasible || !v.Tight {
				t.Fatalf("result fails Verify: %+v", v)
			}
		})
	}
}

func TestExactGranularityUsesWarmPath(t *testing.T) {
	sys := testSystem(4, 1, 8)
	gran := []int64{4, 1, 8, 2}
	res := mustSolve(t, &Exact{}, &Problem{Model: sys, Granularity: gran})
	if res.Path != PathWarm {
		t.Fatalf("path %q, want warm for granularity-constrained solve", res.Path)
	}
	for i, b := range res.Blocks {
		if b%gran[i] != 0 {
			t.Fatalf("block[%d]=%d not a multiple of %d", i, b, gran[i])
		}
	}
	if v := Verify(sys, gran, res.Blocks); !v.Feasible || !v.Tight {
		t.Fatalf("exact granular result fails Verify: %+v", v)
	}
}

// TestFastBudgetExhaustionFallsBack: this instance once ran the float tier
// out of rounds and forced its fallback. The deprecated Fast shim now runs
// the exact kernel, so there is no float budget to exhaust: with or without
// a Fallback it returns the cold least fixed point on the exact path.
func TestFastBudgetExhaustionFallsBack(t *testing.T) {
	sys := testSystem(10, 1, 6)
	want, err := coldFixedPoint(sys, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Fast{{}, {Fallback: &Exact{}}} {
		res := mustSolve(t, f, &Problem{Model: sys})
		if res.Path != PathWarm {
			t.Fatalf("Fast%+v path %q, want %q", *f, res.Path, PathWarm)
		}
		if !reflect.DeepEqual(res.Blocks, want) {
			t.Fatalf("Fast%+v blocks %v, cold oracle %v", *f, res.Blocks, want)
		}
		if v := Verify(sys, nil, res.Blocks); !v.Feasible || !v.Tight {
			t.Fatalf("Fast%+v result fails Verify: %+v", *f, v)
		}
	}
}

func TestIncrementalWarmStart(t *testing.T) {
	sys := testSystem(8, 1, 6)
	w := &Incremental{Inner: &Exact{}}

	cold := mustSolve(t, w, &Problem{Model: sys})
	prev := make([]Assignment, len(sys.Streams))
	for i := range sys.Streams {
		prev[i] = Assignment{Name: sys.Streams[i].Name, Block: cold.Blocks[i]}
	}

	// Addition: same streams plus a newcomer; warm start must agree with a
	// cold solve of the grown model and converge in fewer rounds.
	grown := sys.Clone()
	grown.Streams = append(grown.Streams, core.Stream{
		Name: "newcomer", Rate: big.NewRat(1_000_000, 8*6*4), Reconfig: 60,
	})
	warm := mustSolve(t, w, &Problem{Model: grown, Prev: prev})
	coldGrown := mustSolve(t, w, &Problem{Model: grown})
	if !reflect.DeepEqual(warm.Blocks, coldGrown.Blocks) {
		t.Fatalf("warm %v != cold %v on the grown model", warm.Blocks, coldGrown.Blocks)
	}
	if warm.Rounds > coldGrown.Rounds {
		t.Fatalf("warm start took %d rounds, cold took %d", warm.Rounds, coldGrown.Rounds)
	}

	// Removal: a Prev name missing from the model must trigger a cold
	// restart — the result must be the shrunken model's true least fixed
	// point, not a stale reuse of the larger one.
	shrunk := sys.Clone()
	shrunk.Streams = shrunk.Streams[:len(shrunk.Streams)-1]
	after := mustSolve(t, w, &Problem{Model: shrunk, Prev: prev})
	coldShrunk := mustSolve(t, w, &Problem{Model: shrunk})
	if !reflect.DeepEqual(after.Blocks, coldShrunk.Blocks) {
		t.Fatalf("post-removal %v != cold %v", after.Blocks, coldShrunk.Blocks)
	}
}

func TestVerifyRejects(t *testing.T) {
	sys := testSystem(3, 1, 8)
	good := mustSolve(t, &Exact{}, &Problem{Model: sys})
	if v := Verify(sys, nil, good.Blocks); !v.Feasible || !v.Tight {
		t.Fatalf("optimal plan fails Verify: %+v", v)
	}

	cases := []struct {
		name   string
		blocks []int64
	}{
		{"short", good.Blocks[:2]},
		{"zero", []int64{0, good.Blocks[1], good.Blocks[2]}},
		{"violating", []int64{1, 1, 1}},
	}
	for _, c := range cases {
		if v := Verify(sys, nil, c.blocks); v.Feasible {
			t.Fatalf("%s: Verify accepted %v", c.name, c.blocks)
		} else if v.Detail == "" {
			t.Fatalf("%s: no detail on rejection", c.name)
		}
	}

	// Feasible but slack: padding every block keeps Eq. 6 but loses
	// tightness.
	slack := make([]int64, len(good.Blocks))
	for i, b := range good.Blocks {
		slack[i] = b + 100
	}
	if v := Verify(sys, nil, slack); !v.Feasible || v.Tight {
		t.Fatalf("padded plan: %+v, want feasible non-tight", v)
	}

	// Granularity violation.
	if v := Verify(sys, []int64{7, 1, 1}, good.Blocks); v.Feasible && good.Blocks[0]%7 != 0 {
		t.Fatalf("Verify accepted non-multiple block under granularity")
	}
}

func TestSolverDoesNotMutateModel(t *testing.T) {
	sys := testSystem(5, 1, 8)
	before := sys.Clone()
	for _, s := range []Solver{&Exact{}, &Incremental{Inner: &Exact{}}} {
		if _, err := s.Solve(&Problem{Model: sys}); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !reflect.DeepEqual(sys, before) {
			t.Fatalf("%s mutated the model", s.Name())
		}
	}
}
