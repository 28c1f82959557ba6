package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"
)

// Passes per series: at least minPasses so that a median exists, at most
// maxPasses so that a run ends within its time limit on a slow host.
const (
	minPasses = 3
	maxPasses = 200
)

// series is the passes of one measured run of a workload.
type series struct {
	passes []*pass
}

// measure repeats the workload until budget has passed (and at least
// minPasses times). Every pass must reproduce the first pass's simulated
// statistics exactly.
func measure(w *workload, seed uint64, budget time.Duration, mk func() *observer) (*series, error) {
	if mk == nil {
		mk = func() *observer { return &observer{} }
	}
	s := &series{}
	start := time.Now()
	for len(s.passes) < minPasses || (time.Since(start) < budget && len(s.passes) < maxPasses) {
		p, err := w.pass(seed, mk())
		if p != nil {
			s.passes = append(s.passes, p)
		}
		if err != nil {
			return s, fmt.Errorf("%s pass %d: %w", w.name, len(s.passes), err)
		}
		if first := s.passes[0].sim; p.sim != first {
			return s, fmt.Errorf("%s pass %d: simulated statistics differ from pass 1:\n  %+v\n  %+v",
				w.name, len(s.passes), p.sim, first)
		}
	}
	return s, nil
}

func (s *series) summary() runSummary { return runSummary{attempted: len(s.passes)} }

// sim returns the (identical) simulated statistics of the series.
func (s *series) sim() simStats { return s.passes[0].sim }

// median of a per-pass host measurement.
func (s *series) median(f func(*pass) float64) float64 {
	xs := make([]float64, len(s.passes))
	for i, p := range s.passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// callMedian is the median over passes of a per-pass percentile of a
// per-call host time, in microseconds.
func (s *series) callMedian(f func(*observer) []time.Duration, q int) float64 {
	return s.median(func(p *pass) float64 { return percentileD(f(p.obs), q) })
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentileD is the nearest-rank percentile of ds in microseconds.
func percentileD(ds []time.Duration, q int) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return float64(s[rank(len(s), q)]) / 1e3
}

func secs(p *pass) float64 { return p.run.Seconds() }

// endToEnd is every end-to-end metric of an untraced series. The JSON
// line holds the ones every workload has and that cannot read 0; the
// rates that only rescale run_s by a simulated constant (ns_per_cycle,
// lifetimes_per_s) and the control-plane and simulated-outcome metrics
// that only some workloads have are printed in the table.
func endToEnd(w *workload, s *series) []metric {
	st := s.sim()
	run := s.median(secs)
	ms := []metric{
		{name: "setup_s", unit: "s", host: true, value: s.median(func(p *pass) float64 { return p.setup.Seconds() })},
		{name: "run_s", unit: "s", host: true, value: run},
		{name: "samples_per_s", unit: "1/s", host: true, value: float64(st.Samples) / run},
		{name: "alloc_mb", unit: "MB", host: true, value: s.median(func(p *pass) float64 { return float64(p.allocBytes) / 1e6 })},
		{name: "live_heap_mb", unit: "MB", host: true, value: s.median(func(p *pass) float64 { return float64(p.liveHeap) / 1e6 })},
		{name: "admitted", unit: "count", value: float64(st.Admitted)},
	}
	tableOnly := []metric{
		{name: "ns_per_cycle", unit: "ns", host: true, value: run * 1e9 / float64(st.Cycles)},
		{name: "lifetimes_per_s", unit: "1/s", host: true, value: float64(st.Admitted) / run},
		{name: "submit_p50_us", unit: "us", host: true, value: s.callMedian(func(o *observer) []time.Duration { return o.submit }, 50)},
		{name: "submit_p90_us", unit: "us", host: true, value: s.callMedian(func(o *observer) []time.Duration { return o.submit }, 90)},
		{name: "depart_p50_us", unit: "us", host: true, value: s.callMedian(func(o *observer) []time.Duration { return o.depart }, 50)},
		{name: "submit_calls", unit: "count", value: float64(len(s.passes[0].obs.submit))},
		{name: "depart_calls", unit: "count", value: float64(len(s.passes[0].obs.depart))},
		{name: "fail_share", unit: "share", value: st.failShare()},
		{name: "admit_cycles_p50", unit: "cycles", value: float64(st.AdmitP50)},
		{name: "admit_cycles_p90", unit: "cycles", value: float64(st.AdmitP90)},
		{name: "bound_slack_min_cycles", unit: "cycles", value: float64(st.SlackMin)},
	}
	for i := range tableOnly {
		m := &tableOnly[i]
		m.tableOnly = true
		switch m.name {
		case "ns_per_cycle", "lifetimes_per_s", "fail_share", "bound_slack_min_cycles":
		default:
			m.na = w.fleet == nil
		}
	}
	return append(ms, tableOnly...)
}

// perLayer measures the workload twice: untraced for half the budget and
// traced (spans plus a CPU profile) for the other half. The two series
// must agree on every simulated statistic; the traced one gives the layer
// shares and self times, and isolated fixtures time single layers from
// outside.
func perLayer(w *workload, seed uint64, budget time.Duration, tracePath string) ([]metric, runSummary, error) {
	var sum runSummary
	plain, err := measure(w, seed, budget/2, nil)
	sum.attempted += len(plain.passes)
	if err != nil {
		return nil, sum, err
	}

	tr := &tracer{}
	var last *observer
	mk := func() *observer {
		tr.reset()
		last = &observer{tr: tr, capture: true}
		return last
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, sum, fmt.Errorf("starting CPU profile: %w", err)
	}
	traced, err := measure(w, seed, budget/2, mk)
	pprof.StopCPUProfile()
	sum.attempted += len(traced.passes)
	if err != nil {
		return nil, sum, err
	}
	if a, b := plain.sim(), traced.sim(); a != b {
		return nil, sum, fmt.Errorf("simulated statistics differ between untraced and traced runs:\n  %+v\n  %+v", a, b)
	}
	if err := tr.write(tracePath); err != nil {
		return nil, sum, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, sum, err
	}
	fx, err := runFixtures(w, seed, last)
	if err != nil {
		return nil, sum, err
	}

	st := plain.sim()
	run := plain.median(secs)
	tracedRun := traced.median(secs)
	solveShare := traced.median(func(p *pass) float64 { return p.obs.solveTotal.Seconds() / p.run.Seconds() })
	allSolves := func(o *observer) []time.Duration { return o.solves }
	ms := []metric{
		{name: "solve.calls", unit: "count", value: float64(st.Solve.Calls)},
		{name: "solve.share", unit: "share", host: true, value: solveShare},
		{name: "solve.p50_us", unit: "us", host: true, value: traced.callMedian(allSolves, 50)},
		{name: "solve.p90_us", unit: "us", host: true, value: traced.callMedian(allSolves, 90)},
		{name: "solve.path_ilp", unit: "count", value: float64(st.Solve.ILP)},
		{name: "solve.path_warm", unit: "count", value: float64(st.Solve.Warm)},
		{name: "solve.path_float", unit: "count", value: float64(st.Solve.Float)},
		{name: "solve.rounds", unit: "count", value: float64(st.Solve.Rounds)},
		{name: "solve.errors", unit: "count", value: float64(st.Solve.Errors)},
		{name: "solve.replay_s", unit: "s", host: true, value: fx.replay},
		{name: "cluster.submit_self_p50_us", unit: "us", host: true, value: traced.callMedian(func(o *observer) []time.Duration { return o.submitSelf }, 50)},
		{name: "cluster.depart_self_p50_us", unit: "us", host: true, value: traced.callMedian(func(o *observer) []time.Duration { return o.departSelf }, 50)},
		{name: "cluster.retries", unit: "count", value: float64(st.ClusterRetries)},
		{name: "cluster.rebalance_moves", unit: "count", value: float64(st.RebalanceMoves)},
		{name: "cluster.ladder_steps", unit: "count", value: float64(st.LadderSteps)},
		{name: "sim.events", unit: "count", value: float64(st.Events)},
		{name: "sim.events_per_cycle", unit: "1/cycle", value: float64(st.Events) / float64(st.Cycles)},
		{name: "sim.ns_per_event", unit: "ns", host: true, value: run * 1e9 / float64(st.Events)},
		{name: "gateway.blocks", unit: "count", value: float64(st.Blocks)},
		{name: "gateway.reconfig_share", unit: "share", value: st.reconfigShare()},
		{name: "gateway.retries", unit: "count", value: float64(st.Retries)},
		{name: "accel.busy_share", unit: "share", value: st.busyShare()},
		{name: "accel.process_ns", unit: "ns", host: true, value: fx.process},
		{name: "cfifo.buffer_peak", unit: "words", value: float64(st.BufferPeak)},
		{name: "fault.verdicts", unit: "count", value: float64(st.Verdicts)},
		{name: "conformance.blocks_checked", unit: "count", value: float64(st.BlocksChecked)},
		{name: "conformance.check_ms", unit: "ms", host: true, value: plain.median(func(p *pass) float64 { return p.check.Seconds() * 1e3 })},
		{name: "pal.synth_ns_per_sample", unit: "ns", host: true, value: fx.synth},
		{name: "runtime.mallocs", unit: "count", host: true, value: plain.median(func(p *pass) float64 { return float64(p.mallocs) })},
		{name: "runtime.gc_cycles", unit: "count", host: true, value: plain.median(func(p *pass) float64 { return float64(p.gcCycles) })},
		{name: "trace.overhead", unit: "share", host: true, value: tracedRun/run - 1},
	}
	for _, l := range layers {
		ms = append(ms, metric{name: l + ".cpu_share", unit: "share", host: true, value: shares[l]})
	}
	// Per-call control-plane times have no calls to time on pal-decode;
	// they are printed in the table only, so that the JSON line holds the
	// same metrics on every workload and no host time reads a constant 0.
	for i := range ms {
		switch m := &ms[i]; m.name {
		case "solve.p50_us", "solve.p90_us", "solve.replay_s", "cluster.submit_self_p50_us", "cluster.depart_self_p50_us":
			m.tableOnly, m.na = true, w.fleet == nil
		}
	}
	return ms, sum, nil
}

// percentileU is the nearest-rank percentile of xs (0 when empty).
func percentileU(xs []uint64, q int) uint64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[rank(len(s), q)]
}

// rank is the 0-based nearest-rank index of percentile q among n values.
func rank(n, q int) int {
	i := (q*n + 99) / 100
	if i < 1 {
		i = 1
	}
	return i - 1
}
