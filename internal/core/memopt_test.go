package core

import (
	"math/big"
	"testing"
)

func memSystem() *System {
	return &System{
		Chain:   Chain{Name: "m", AccelCosts: []uint64{2}, EntryCost: 3, ExitCost: 1, NICapacity: 2},
		ClockHz: 1_000_000,
		Streams: []Stream{
			{Name: "s0", Rate: big.NewRat(50_000, 1), Reconfig: 40},
			{Name: "s1", Rate: big.NewRat(25_000, 1), Reconfig: 40},
		},
	}
}

func TestTotalMemoryAtRejectsInfeasible(t *testing.T) {
	s := memSystem()
	if _, _, err := s.TotalMemoryAt([]int64{1, 1}); err == nil {
		t.Fatal("undersized blocks accepted")
	}
}

func TestTotalMemoryAtMinimumBlocks(t *testing.T) {
	s := memSystem()
	min, err := s.SolveBlockSizes(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	total, caps, err := s.TotalMemoryAt(min.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 2 || total <= 0 {
		t.Fatalf("total=%d caps=%v", total, caps)
	}
	for i, c := range caps {
		// Each buffer must hold at least one block.
		if c[0] < min.Blocks[i] || c[1] < min.Blocks[i] {
			t.Errorf("stream %d caps %v below block %d", i, c, min.Blocks[i])
		}
	}
}

func TestOptimalBlockSizesForMemory(t *testing.T) {
	s := memSystem()
	res, err := s.OptimalBlockSizesForMemory(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored == 0 {
		t.Fatal("nothing explored")
	}
	// The optimum can never need more memory than the Algorithm-1 point
	// (the minimum blocks are inside the search window at k=0).
	if res.TotalMemory > res.MinBlocksMemory {
		t.Errorf("optimal memory %d worse than min-blocks memory %d", res.TotalMemory, res.MinBlocksMemory)
	}
	// And the blocks must be feasible.
	if !s.FeasibleBlocks(res.Blocks) {
		t.Error("optimal blocks infeasible")
	}
	for i := range res.Blocks {
		if res.Blocks[i] < res.MinBlocks[i] {
			t.Errorf("optimal block %d below minimum %d", res.Blocks[i], res.MinBlocks[i])
		}
	}
	t.Logf("min blocks %v -> memory %d; optimal blocks %v -> memory %d (explored %d)",
		res.MinBlocks, res.MinBlocksMemory, res.Blocks, res.TotalMemory, res.Explored)
}

func TestOptimalBlockSizesWindowZero(t *testing.T) {
	// Window 0 degenerates to evaluating only the Algorithm-1 point.
	s := memSystem()
	res, err := s.OptimalBlockSizesForMemory(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Blocks {
		if res.Blocks[i] != res.MinBlocks[i] {
			t.Fatalf("window 0 should return the minimum blocks, got %v vs %v", res.Blocks, res.MinBlocks)
		}
	}
	if res.TotalMemory != res.MinBlocksMemory {
		t.Errorf("memory mismatch at window 0: %d vs %d", res.TotalMemory, res.MinBlocksMemory)
	}
}

func TestBurstyProducerMakesMemoryNonMonotone(t *testing.T) {
	// A producer writing 5-sample packets: the input buffer's minimum
	// capacity has gcd dips (Fig. 8), so a LARGER block can need LESS total
	// memory than the Algorithm-1 minimum — the §V-F motivation.
	// Rates tuned so Algorithm 1 lands at η = 4 for both streams — one
	// short of the burst size, right before a gcd dip (α_in(4) = 8 but
	// α_in(5) = 5 for a 5-sample burst).
	s := &System{
		Chain:   Chain{Name: "b", AccelCosts: []uint64{2}, EntryCost: 3, ExitCost: 1, NICapacity: 2},
		ClockHz: 1_000_000,
		Streams: []Stream{
			{Name: "s0", Rate: big.NewRat(34_000, 1), Reconfig: 40, ProducerBurst: 5},
			{Name: "s1", Rate: big.NewRat(34_000, 1), Reconfig: 40, ProducerBurst: 5},
		},
	}
	res, err := s.OptimalBlockSizesForMemory(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("min blocks %v -> memory %d; optimal %v -> memory %d (explored %d)",
		res.MinBlocks, res.MinBlocksMemory, res.Blocks, res.TotalMemory, res.Explored)
	if res.TotalMemory > res.MinBlocksMemory {
		t.Fatalf("optimum worse than minimum point")
	}
	// The headline §V-F claim: for bursty producers the memory-optimal
	// blocks differ from the throughput-minimal ones.
	same := true
	for i := range res.Blocks {
		if res.Blocks[i] != res.MinBlocks[i] {
			same = false
		}
	}
	if same {
		t.Errorf("memory optimum coincides with minimal blocks; expected a gcd dip to shift it (min=%v)", res.MinBlocks)
	}
}
