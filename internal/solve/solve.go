// Package solve puts Algorithm 1 — minimum block sizes under the Eq. 6
// throughput constraints — behind a Solver interface for the control
// planes (internal/admission per chain, internal/cluster fleet-wide):
//
//   - Exact is the one online solver. It calls the exact kernel
//     core.(*System).SolveBlockSizes: a closed-form start and a Kleene
//     iteration on T = Σηs in big.Int arithmetic. There is no float, no
//     simplex and no ILP on the online path; the paper's literal ILP
//     (core.ComputeBlockSizesILP) stays as the E4/A4 reproduction and the
//     test oracle.
//   - Incremental is the warm-start layer promoted out of admission: it
//     derives a sound warm start from the previously committed assignment
//     (reuse after additions, cold restart after removals) and delegates.
//   - Verify is the exact acceptance check of any candidate assignment,
//     built on the kernel's operator.
//
// PlanRebalance is the exact cross-chain move search the fleet's
// rebalancer runs; placement itself goes through each chain's admission
// controller.
//
// Solvers do not mutate the Problem's model; callers commit Result.Blocks
// themselves. All implementations are safe for concurrent use.
package solve

import (
	"fmt"

	"accelshare/internal/core"
)

// Assignment names one stream's committed block size (the warm-start
// currency between the control planes and the Incremental layer).
type Assignment struct {
	Name  string
	Block int64
}

// Problem is one Algorithm 1 instance.
type Problem struct {
	// Model holds the candidate stream set with rates, reconfiguration
	// costs and chain parameters. Block fields are ignored as inputs and
	// never written by a Solver.
	Model *core.System
	// Granularity constrains ηs to multiples of Granularity[s] (nil = all
	// ones; entries < 1 are treated as 1).
	Granularity []int64
	// Prev is the previously committed assignment, keyed by stream name.
	// The Incremental layer turns it into a sound warm start when the new
	// stream set only adds streams; other solvers ignore it.
	Prev []Assignment
	// Start, when non-nil, is a positional floor for the answer (see
	// core.(*System).SolveBlockSizes). Componentwise ≤ the least fixed
	// point, it only speeds the solve up; most callers leave it nil and
	// set Prev.
	Start []int64
}

// Path identifies which decision procedure produced a Result.
type Path string

// Solver paths.
const (
	// PathWarm: the exact kernel. Every Result carries it.
	PathWarm Path = "warm"
	// Deprecated: no solver returns PathILP; the online ILP is gone.
	PathILP Path = "ilp"
	// Deprecated: no solver returns PathFloat; the float tier is gone.
	PathFloat Path = "float"
)

// Result is a feasible minimum block-size assignment.
type Result struct {
	// Blocks[i] is ηs for Model.Streams[i].
	Blocks []int64
	// Total is Σ ηs, Algorithm 1's objective.
	Total int64
	// Rounds counts the kernel's rounds.
	Rounds int
	// Path names the procedure that produced the assignment.
	Path Path
}

// Solver is one Algorithm 1 decision procedure. Implementations must be
// safe for concurrent use and must not mutate the Problem.
type Solver interface {
	Name() string
	Solve(p *Problem) (*Result, error)
}

// validate checks the problem shape shared by every solver.
func (p *Problem) validate() error {
	if p.Model == nil {
		return fmt.Errorf("solve: nil model")
	}
	n := len(p.Model.Streams)
	if p.Granularity != nil && len(p.Granularity) != n {
		return fmt.Errorf("solve: %d granularities for %d streams", len(p.Granularity), n)
	}
	if p.Start != nil && len(p.Start) != n {
		return fmt.Errorf("solve: %d warm-start entries for %d streams", len(p.Start), n)
	}
	return nil
}

// Verification is the outcome of one exact check of a candidate
// assignment against the Algorithm 1 operator.
type Verification struct {
	// Feasible: every stream satisfies Eq. 6 (η ≥ F(η) componentwise) and
	// every block is a positive granularity multiple. Only a feasible plan
	// may ever be applied to the platform.
	Feasible bool
	// Tight: η = F(η) exactly — the plan is a genuine fixed point, carrying
	// no slack that a smaller feasible plan could reclaim.
	Tight bool
	// Detail names the first violated stream for infeasible plans.
	Detail string
}

// Verify checks a candidate assignment exactly against the kernel's
// operator (core.(*System).BlockOperator), so an assignment from any
// source — a test oracle, a migrated configuration — is judged by the same
// arithmetic the solver uses.
func Verify(m *core.System, granularity, blocks []int64) Verification {
	if len(blocks) != len(m.Streams) {
		return Verification{Detail: fmt.Sprintf("%d blocks for %d streams", len(blocks), len(m.Streams))}
	}
	for i, b := range blocks {
		g := int64(1)
		if granularity != nil && i < len(granularity) {
			g = granularity[i]
		}
		if b < 1 || (g > 1 && b%g != 0) {
			return Verification{Detail: fmt.Sprintf("stream %q block %d is not a positive multiple of %d",
				m.Streams[i].Name, b, g)}
		}
	}
	f, err := m.BlockOperator(blocks, granularity)
	if err != nil {
		return Verification{Detail: err.Error()}
	}
	tight := true
	for i := range blocks {
		if blocks[i] < f[i] {
			return Verification{Detail: fmt.Sprintf("stream %q block %d < required %d",
				m.Streams[i].Name, blocks[i], f[i])}
		}
		if blocks[i] != f[i] {
			tight = false
		}
	}
	return Verification{Feasible: true, Tight: tight}
}

// Default is the production solver stack: the Incremental warm-start layer
// over Exact. Both parameters are ignored; they remain so older callers
// still compile.
func Default(ilpNodes, warmRounds int) Solver {
	return &Incremental{Inner: &Exact{}}
}
