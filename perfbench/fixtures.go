package main

import (
	"fmt"
	"slices"
	"time"

	"accelshare/internal/accel"
	"accelshare/internal/dsp"
	"accelshare/internal/pal"
	"accelshare/internal/sim"
	"accelshare/internal/solve"
)

// fixtureRepeats is how often each isolated PAL fixture runs and
// replayRepeats how often the solver replay runs; each reports the median.
const (
	fixtureRepeats = 5
	replayRepeats  = 3
)

// fixtures are single layers timed from outside the simulation, free of
// event-kernel and GC interplay. The PAL fixtures run on every workload;
// the replay reads 0 on pal-decode, which issues no solve.
type fixtures struct {
	synth   float64 // pal.Frontend.Sample, ns per baseband sample
	process float64 // PAL mixer then FIR↓8 Process, ns per input word
	replay  float64 // re-solving the workload's Algorithm 1 problems, s
}

func runFixtures(w *workload, seed uint64, o *observer) (fixtures, error) {
	var fx fixtures
	fx.synth, fx.process = palFixtures(palParams(seed))
	if w.fleet == nil {
		return fx, nil
	}
	var err error
	fx.replay, err = replayFixture(o.problems, func() solve.Solver {
		_, s := w.fleet(seed)
		return s
	})
	return fx, err
}

// palFixtures times the input generator and the two shared engines over
// one stage-1 stream's worth of baseband samples.
func palFixtures(p pal.Params) (synth, process float64) {
	n := int(p.Seconds * p.FrontendRate())
	words := make([]sim.Word, n)
	var synthNs, procNs []float64
	for r := 0; r < fixtureRepeats; r++ {
		fe := pal.NewFrontend(p)
		t0 := time.Now()
		for i := range words {
			words[i] = fe.Sample(uint64(i))
		}
		synthNs = append(synthNs, float64(time.Since(t0).Nanoseconds())/float64(n))

		mixer, fir := palEngines(p)
		var mid, out []sim.Word
		t1 := time.Now()
		for _, w := range words {
			mid = mixer.Process(w, mid[:0])
			for _, m := range mid {
				out = fir.Process(m, out[:0])
			}
		}
		procNs = append(procNs, float64(time.Since(t1).Nanoseconds())/float64(n))
	}
	return median(synthNs), median(procNs)
}

// palEngines builds the stage-1 engines of the first channel as pal.Build
// does: the CORDIC mixer onto carrier 1 and the quantised FIR LPF ↓D.
func palEngines(p pal.Params) (accel.Engine, accel.Engine) {
	lpf, err := dsp.DesignLowPass(p.FilterTaps, 0.5/float64(p.Decimation)*0.8)
	if err != nil {
		panic(err) // the default parameters design a valid filter
	}
	fir, err := accel.NewFIR(dsp.QuantizeQ15(lpf), p.Decimation)
	if err != nil {
		panic(err)
	}
	return accel.NewMixer(-p.Carrier1, p.FrontendRate()), fir
}

// replayFixture re-solves deep copies of every problem the traced pass
// issued with a fresh solver stack, checks each answer against the
// original one, and returns the median total host time.
func replayFixture(cases []replayCase, mk func() solve.Solver) (float64, error) {
	var runs []float64
	for r := 0; r < replayRepeats; r++ {
		s := mk()
		results := make([][]int64, len(cases))
		t0 := time.Now()
		for i, c := range cases {
			if res, err := s.Solve(c.p); err == nil {
				results[i] = res.Blocks
			}
		}
		runs = append(runs, time.Since(t0).Seconds())
		for i, c := range cases {
			if !slices.Equal(results[i], c.blocks) || (results[i] == nil) != (c.blocks == nil) {
				return 0, fmt.Errorf("replay of solve %d gave blocks %v, the workload got %v", i, results[i], c.blocks)
			}
		}
	}
	return median(runs), nil
}
