package core

// §V-F second half: after Algorithm 1 finds the SMALLEST block sizes, the
// paper notes that the smallest blocks do not generally give the smallest
// buffer capacities (the Fig. 8 non-monotonicity), and that finding the
// memory-optimal block sizes needs "a computationally intensive branch-and-
// bound algorithm [that] has to verify whether the throughput constraint of
// every stream is satisfied for every possible block size and must compute
// the accompanying minimum buffer capacities". This file implements that
// search over the single-actor SDF abstraction (Fig. 7): for every feasible
// block-size vector in a bounded window above the minimum, size each
// stream's α0 and α3 exactly (state-space search under the stream's rate
// constraint) and keep the assignment with the smallest total memory.

import (
	"fmt"
	"math/big"

	"accelshare/internal/buffer"
	"accelshare/internal/dataflow"
)

// MemoryResult is the outcome of OptimalBlockSizesForMemory.
type MemoryResult struct {
	// Blocks is the memory-optimal block-size vector.
	Blocks []int64
	// Capacities[i] = [α0, α3] for stream i at those blocks.
	Capacities [][2]int64
	// TotalMemory is Σ (α0 + α3) in samples.
	TotalMemory int64
	// MinBlocks and MinBlocksMemory document the Algorithm-1 point for
	// comparison (the memory the "smallest blocks" strategy costs).
	MinBlocks       []int64
	MinBlocksMemory int64
	// Explored counts evaluated block-size vectors.
	Explored int
}

// streamBufferNeeds sizes α0 and α3 for stream i at the current block
// sizes: the Fig. 7 SDF model with the producer fixed at the stream's rate
// (one sample per ⌈1/μs⌉ cycles, conservatively rounded up so the source is
// not slowed) and the consumer matching; capacities must sustain the
// producer at full rate (no sample is ever stalled — the real-time
// condition).
func (s *System) streamBufferNeeds(i int) ([2]int64, error) {
	st := &s.Streams[i]
	burst := st.ProducerBurst
	if burst < 1 {
		burst = 1
	}
	// Producer period in cycles for one BURST, rounded down so the modelled
	// source is at least as fast as required (conservative for sizing).
	period := new(big.Rat).Inv(s.RatePerCycle(i))
	period.Mul(period, new(big.Rat).SetInt64(burst))
	prodCost := period.Num().Int64() / period.Denom().Int64()
	if prodCost < 1 {
		prodCost = 1
	}
	gamma, err := s.GammaHat(i)
	if err != nil {
		return [2]int64{}, err
	}
	// Fig. 7 with explicitly sized buffers: vP -> vS -> vC.
	g := dataflow.NewGraph(fmt.Sprintf("mem.%s", st.Name))
	vp := g.AddActor("vP", uint64(prodCost))
	vs := g.AddActor("vS", gamma)
	// The consumer must be at least as fast as the source (floor of the
	// per-sample period) or no buffering could ever sustain the rate.
	consCost := prodCost / burst
	if consCost < 1 {
		consCost = 1
	}
	vc := g.AddActor("vC", uint64(consCost))
	eta := st.Block
	minIn := buffer.ClassicalMinCapacity(burst, eta)
	f0, b0 := g.AddBuffer("in", vp, vs, dataflow.Const(burst), dataflow.Const(eta), minIn)
	f3, b3 := g.AddBuffer("out", vs, vc, dataflow.Const(eta), dataflow.Const(1), eta)
	sz := &buffer.Sizer{
		G:        g,
		Channels: []buffer.Channel{{Fwd: f0, Back: b0}, {Fwd: f3, Back: b3}},
		Monitor:  vp,
	}
	// Target: the producer must sustain its full burst rate 1/prodCost.
	target := big.NewRat(1, prodCost)
	caps, err := sz.MinCapacitiesForThroughput(target)
	if err != nil {
		return [2]int64{}, fmt.Errorf("stream %s: %w", st.Name, err)
	}
	return [2]int64{caps[0], caps[1]}, nil
}

// TotalMemoryAt computes Σ(α0+α3) for the given block assignment.
func (s *System) TotalMemoryAt(blocks []int64) (int64, [][2]int64, error) {
	sys := s.Clone()
	for i := range sys.Streams {
		sys.Streams[i].Block = blocks[i]
	}
	if !sys.FeasibleBlocks(blocks) {
		return 0, nil, fmt.Errorf("core: blocks %v violate Eq. 6", blocks)
	}
	var total int64
	caps := make([][2]int64, len(blocks))
	for i := range sys.Streams {
		c, err := sys.streamBufferNeeds(i)
		if err != nil {
			return 0, nil, err
		}
		caps[i] = c
		total += c[0] + c[1]
	}
	return total, caps, nil
}

// OptimalBlockSizesForMemory searches block-size vectors η_min + k·step for
// k = 0..window per stream (the paper's branch and bound, bounded to a
// window for tractability) and returns the assignment minimising total
// buffer memory. Pruning: partial sums of a lower bound (each stream needs
// at least 2·η buffering) cut branches that cannot beat the incumbent.
func (s *System) OptimalBlockSizesForMemory(window int, step int64) (*MemoryResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if step < 1 {
		step = 1
	}
	minRes, err := s.SolveBlockSizes(nil, nil)
	if err != nil {
		return nil, err
	}
	n := len(s.Streams)
	res := &MemoryResult{MinBlocks: minRes.Blocks}

	best := int64(1) << 62
	var bestBlocks []int64
	var bestCaps [][2]int64
	cur := make([]int64, n)

	var dfs func(i int, lbSum int64) error
	dfs = func(i int, lbSum int64) error {
		if lbSum >= best {
			return nil // even the lower bound cannot win
		}
		if i == n {
			total, caps, err := s.TotalMemoryAt(cur)
			if err != nil {
				return nil // infeasible combination: skip
			}
			res.Explored++
			if total < best {
				best = total
				bestBlocks = append([]int64(nil), cur...)
				bestCaps = caps
			}
			return nil
		}
		for k := 0; k <= window; k++ {
			cur[i] = minRes.Blocks[i] + int64(k)*step
			// Lower bound: every stream needs at least block-sized input
			// and output buffers.
			if err := dfs(i+1, lbSum+2*cur[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(0, 0); err != nil {
		return nil, err
	}
	if bestBlocks == nil {
		return nil, fmt.Errorf("core: no feasible assignment in the search window")
	}
	res.Blocks = bestBlocks
	res.Capacities = bestCaps
	res.TotalMemory = best
	if m, _, err := s.TotalMemoryAt(minRes.Blocks); err == nil {
		res.MinBlocksMemory = m
	}
	return res, nil
}
