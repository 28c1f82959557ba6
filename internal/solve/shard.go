package solve

import (
	"math/big"
	"runtime"
	"sync"

	"accelshare/internal/core"
)

// Per-chain sharding. Algorithm 1 couples streams only within one chain
// (the Σ(ηi+2) term ranges over the streams multiplexed on that chain's
// accelerators), so a fleet-wide solve decomposes exactly into independent
// per-chain problems. SolveShards runs them concurrently with a
// deterministic indexed merge; Fits/Headroom are the cheap exact
// feasibility combination step that decides WHERE a stream can go before
// any full solve runs, and PlanPlacement composes the two into a
// cluster-wide plan.

// Shard is one independent per-chain Algorithm 1 instance.
type Shard struct {
	// Key names the shard (typically the chain name) and is carried into
	// the result verbatim.
	Key     string
	Problem *Problem
}

// ShardResult pairs a shard's key with its solve outcome. Exactly one of
// Result and Err is non-nil.
type ShardResult struct {
	Key    string
	Result *Result
	Err    error
}

// SolveShards solves independent shards concurrently and merges the
// results by input position — out[i] always answers shards[i], whatever
// order the workers finished in, so campaign output built from the merged
// slice stays byte-deterministic. workers ≤ 0 means GOMAXPROCS.
func SolveShards(s Solver, shards []Shard, workers int) []ShardResult {
	out := make([]ShardResult, len(shards))
	if len(shards) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := s.Solve(shards[i].Problem)
				out[i] = ShardResult{Key: shards[i].Key, Result: res, Err: err}
			}
		}()
	}
	for i := range shards {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// one is the feasibility threshold Σ μs·c0 < 1.
var one = big.NewRat(1, 1)

// AddedUtilization returns the exact utilisation a stream of the given
// rate (samples/second) would add to the chain: (rate/ClockHz)·c0.
func AddedUtilization(m *core.System, rate *big.Rat) *big.Rat {
	mu := new(big.Rat).Quo(rate, new(big.Rat).SetInt64(m.ClockHz))
	return mu.Mul(mu, new(big.Rat).SetInt64(int64(m.Chain.C0())))
}

// Fits reports whether adding one stream of the given rate keeps the
// chain's exact utilisation strictly below 1 — the necessary and
// sufficient condition for SOME feasible block assignment to exist (see
// core.(*System).SolveBlockSizes). It is
// a pure big.Rat computation, O(streams), with no solver involved: the
// cheap pre-filter for cluster-wide placement.
func Fits(m *core.System, rate *big.Rat) bool {
	u := new(big.Rat).Add(m.Utilization(), AddedUtilization(m, rate))
	return u.Cmp(one) < 0
}

// Headroom returns the chain's exact remaining utilisation budget,
// 1 − Σ μs·c0. Negative or zero headroom admits nothing.
func Headroom(m *core.System) *big.Rat {
	return new(big.Rat).Sub(one, m.Utilization())
}

// PlacementPlan is the outcome of PlanPlacement.
type PlacementPlan struct {
	// ChainOf[i] is the chain index the i-th candidate stream was placed
	// on, or -1 when no chain had the headroom.
	ChainOf []int
	// Models[c] is a deep copy of chains[c] with its placed streams
	// appended, in arrival order.
	Models []*core.System
	// Results[c] is the solve result for Models[c] (zero for chains that
	// received no streams and were not re-solved).
	Results []ShardResult
}

// PlanPlacement is the solver-level cluster placement: each candidate
// stream goes to the feasible chain with the largest exact headroom
// (best-fit; ties broken by chain index, so the plan is deterministic),
// then every chain that received streams is re-solved as an independent
// shard.
func PlanPlacement(s Solver, chains []*core.System, streams []core.Stream, workers int) *PlacementPlan {
	plan := &PlacementPlan{
		ChainOf: make([]int, len(streams)),
		Models:  make([]*core.System, len(chains)),
		Results: make([]ShardResult, len(chains)),
	}
	head := make([]*big.Rat, len(chains))
	for c := range chains {
		plan.Models[c] = chains[c].Clone()
		head[c] = Headroom(plan.Models[c])
	}
	touched := make([]bool, len(chains))
	for i := range streams {
		plan.ChainOf[i] = -1
		best := -1
		for c := range plan.Models {
			if !Fits(plan.Models[c], streams[i].Rate) {
				continue
			}
			if best < 0 || head[c].Cmp(head[best]) > 0 {
				best = c
			}
		}
		if best < 0 {
			continue
		}
		add := AddedUtilization(plan.Models[best], streams[i].Rate)
		head[best].Sub(head[best], add)
		st := streams[i]
		st.Rate = new(big.Rat).Set(streams[i].Rate)
		st.Block = 0
		plan.Models[best].Streams = append(plan.Models[best].Streams, st)
		plan.ChainOf[i] = best
		touched[best] = true
	}
	var shards []Shard
	var shardChain []int
	for c := range plan.Models {
		if touched[c] {
			shards = append(shards, Shard{Key: plan.Models[c].Chain.Name, Problem: &Problem{Model: plan.Models[c]}})
			shardChain = append(shardChain, c)
		}
	}
	for i, r := range SolveShards(s, shards, workers) {
		plan.Results[shardChain[i]] = r
	}
	return plan
}
