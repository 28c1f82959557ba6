package solve

// Incremental is the warm-start layer promoted out of internal/admission:
// it derives a sound Start vector from the previously committed assignment
// (Problem.Prev) and delegates to Inner. Soundness: when the new stream
// set only ADDS streams, the Algorithm 1 operator grows pointwise, so the old least
// fixed point is still ≤ the new one componentwise and each surviving
// stream's old block seeds the iteration correctly (newcomers start at 1).
// After a removal the least fixed point SHRINKS, so any reuse of old blocks
// could overshoot it and land on a non-minimal fixed point — the layer
// detects this (a Prev name absent from the model) and restarts cold.
type Incremental struct {
	Inner Solver
}

// Name identifies the warm-start layer.
func (w *Incremental) Name() string { return "incremental(" + w.Inner.Name() + ")" }

// Solve derives Start from Prev when sound, then delegates. An explicit
// Problem.Start from the caller wins over derivation.
func (w *Incremental) Solve(p *Problem) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.Start != nil || len(p.Prev) == 0 {
		return w.Inner.Solve(p)
	}
	prev := make(map[string]int64, len(p.Prev))
	for _, a := range p.Prev {
		prev[a.Name] = a.Block
	}
	start := make([]int64, len(p.Model.Streams))
	live := 0
	for i := range p.Model.Streams {
		if b, ok := prev[p.Model.Streams[i].Name]; ok {
			start[i] = b
			live++
		} else {
			start[i] = 1
		}
	}
	if live < len(prev) {
		// A previously committed stream is gone: the operator shrank, the
		// old fixed point may exceed the new least one. Cold restart.
		return w.Inner.Solve(p)
	}
	warmed := *p
	warmed.Start = start
	return w.Inner.Solve(&warmed)
}
