package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"time"

	"accelshare/internal/cluster"
	"accelshare/internal/core"
	"accelshare/internal/solve"
)

// observer records one pass from outside the system: host time of every
// public control-plane call, of every Algorithm 1 solve (through
// timedSolver), and, when tracing, spans for each of them.
type observer struct {
	tr *tracer // nil = untraced

	// capture keeps deep copies of every solved problem, with the result
	// it got, for the isolated replay fixture.
	capture  bool
	problems []replayCase

	// The call in progress: its start, the host time its child solves
	// took, and its span.
	inCall bool
	t0     time.Time
	child  time.Duration
	span   int

	submit, depart         []time.Duration
	submitSelf, departSelf []time.Duration
	solves                 []time.Duration
	solveTotal             time.Duration
	counts                 solveCounts
}

// solveCounts are the solver's work counters; they are simulated
// statistics, exact for a given workload and seed.
type solveCounts struct {
	Calls, ILP, Warm, Float, Rounds, Errors int
}

// replayCase is one captured Algorithm 1 call.
type replayCase struct {
	p      *solve.Problem
	blocks []int64 // nil when the original call failed
}

// schedule registers the traffic against the controller's kernel, as
// cluster.Schedule does, timing each Submit and Depart call.
func (o *observer) schedule(c *cluster.Controller, ops []cluster.Op) {
	k := c.System().K
	for _, op := range ops {
		if op.Depart {
			k.ScheduleAt(op.At, func() {
				o.begin("cluster.Depart", op.Req.Name)
				c.Depart(op.Req.Name)
				o.end(&o.depart, &o.departSelf)
			})
		} else {
			k.ScheduleAt(op.At, func() {
				o.begin("cluster.Submit", op.Req.Name)
				c.Submit(op.Req)
				o.end(&o.submit, &o.submitSelf)
			})
		}
	}
}

func (o *observer) begin(name, stream string) {
	o.inCall, o.child = true, 0
	if o.tr != nil {
		o.span = o.tr.open(name, "cluster", stream, 0)
	}
	o.t0 = time.Now()
}

func (o *observer) end(total, self *[]time.Duration) {
	d := time.Since(o.t0)
	*total = append(*total, d)
	*self = append(*self, d-o.child)
	if o.tr != nil {
		o.tr.close(o.span, o.t0, d)
	}
	o.inCall = false
}

// timedSolver wraps the workload's solver stack; it is handed to the
// fleet through cluster.Config.Solver. The fleets run sequentially (no
// cluster.Cells), so every call comes from the simulation's goroutine.
type timedSolver struct {
	inner solve.Solver
	o     *observer
}

func (s *timedSolver) Name() string { return s.inner.Name() }

func (s *timedSolver) Solve(p *solve.Problem) (*solve.Result, error) {
	var c replayCase
	if s.o.capture {
		c.p = copyProblem(p)
	}
	t0 := time.Now()
	r, err := s.inner.Solve(p)
	d := time.Since(t0)

	o := s.o
	o.solves = append(o.solves, d)
	o.solveTotal += d
	o.counts.Calls++
	if err != nil {
		o.counts.Errors++
	} else {
		o.counts.Rounds += r.Rounds
		switch r.Path {
		case solve.PathILP:
			o.counts.ILP++
		case solve.PathWarm:
			o.counts.Warm++
		case solve.PathFloat:
			o.counts.Float++
		}
		c.blocks = append([]int64(nil), r.Blocks...)
	}
	if o.capture {
		o.problems = append(o.problems, c)
	}
	if o.inCall {
		o.child += d
	}
	if o.tr != nil {
		parent := 0
		if o.inCall {
			parent = o.span
		}
		o.tr.close(o.tr.open("solve.Solve", "solve", fmt.Sprintf("n=%d", len(p.Model.Streams)), parent), t0, d)
	}
	return r, err
}

// copyProblem deep-copies an Algorithm 1 problem, so the replay fixture
// re-solves exactly what the workload asked even after the control plane
// moved on.
func copyProblem(p *solve.Problem) *solve.Problem {
	m := *p.Model
	m.Chain.AccelCosts = append([]uint64(nil), p.Model.Chain.AccelCosts...)
	m.Streams = make([]core.Stream, len(p.Model.Streams))
	for i, st := range p.Model.Streams {
		if st.Rate != nil {
			st.Rate = new(big.Rat).Set(st.Rate)
		}
		m.Streams[i] = st
	}
	return &solve.Problem{
		Model:       &m,
		Granularity: append([]int64(nil), p.Granularity...),
		Prev:        append([]solve.Assignment(nil), p.Prev...),
		Start:       append([]int64(nil), p.Start...),
	}
}

// tracer keeps spans in memory; write renders them as Chrome trace-event
// JSON (chrome://tracing, Perfetto).
type tracer struct {
	origin time.Time
	spans  []span
}

type span struct {
	name, cat, id string
	start, dur    time.Duration
	parent        int // 1-based index of the parent span; 0 = none
}

// reset starts a new pass: only the last traced pass is written out.
func (t *tracer) reset() {
	t.origin = time.Now()
	t.spans = t.spans[:0]
}

// open reserves a span and returns its 1-based index; close fills it in.
func (t *tracer) open(name, cat, id string, parent int) int {
	t.spans = append(t.spans, span{name: name, cat: cat, id: id, parent: parent})
	return len(t.spans)
}

func (t *tracer) close(i int, start time.Time, d time.Duration) {
	s := &t.spans[i-1]
	s.start, s.dur = start.Sub(t.origin), d
}

// timed runs f inside a span of its own.
func (t *tracer) timed(name, cat string, f func()) {
	if t == nil {
		f()
		return
	}
	i := t.open(name, cat, "", 0)
	t0 := time.Now()
	f()
	t.close(i, t0, time.Since(t0))
}

func (t *tracer) write(path string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]string{"span": fmt.Sprint(i + 1)}
		if s.id != "" {
			args["id"] = s.id
		}
		if s.parent > 0 {
			args["parent"] = fmt.Sprint(s.parent)
		}
		evs = append(evs, event{Name: s.name, Cat: s.cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, Pid: 1, Tid: 1, Args: args})
	}
	b, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{evs})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
