package solve

// Exact is the one online Algorithm 1 solver: it calls the exact kernel
// core.(*System).SolveBlockSizes with the problem's warm start and
// granularity. Every value it touches is an exact integer or rational, so
// its results are exact by construction.
type Exact struct {
	// Deprecated: ILPStreamCap is ignored; Exact never runs the ILP.
	ILPStreamCap int
}

// Name identifies the exact solver.
func (e *Exact) Name() string { return "exact" }

// Solve runs the kernel. Every Result carries PathWarm.
func (e *Exact) Solve(p *Problem) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	res, err := p.Model.SolveBlockSizes(p.Start, p.Granularity)
	if err != nil {
		return nil, err
	}
	return &Result{Blocks: res.Blocks, Total: res.Total, Rounds: res.Rounds, Path: PathWarm}, nil
}

// Fast is the former float64 tier.
//
// Deprecated: Fast has no logic of its own: Solve is Exact's and Fallback
// is ignored. Use Exact.
type Fast struct {
	Fallback Solver
}

// Name identifies the solver.
func (f *Fast) Name() string { return "fast" }

// Solve runs Exact.
func (f *Fast) Solve(p *Problem) (*Result, error) { return (&Exact{}).Solve(p) }
