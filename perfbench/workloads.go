package main

import (
	"fmt"
	"math"
	"math/big"
	"runtime"
	"time"

	"accelshare/internal/cfifo"
	"accelshare/internal/cluster"
	"accelshare/internal/conformance"
	"accelshare/internal/fault"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/pal"
	"accelshare/internal/sim"
	"accelshare/internal/solve"
)

// workload is one fixed input set. A pass builds `instances` independent
// instances from seeds derived from the benchmark seed (the first one is
// the seed itself), runs them one after another and checks each.
type workload struct {
	name, why string
	instances int
	build     func(seed uint64, o *observer) (*instance, error)
	// fleet builds a fleet instance and its solver stack; nil for
	// pal-decode.
	fleet func(seed uint64) (*fleet, solve.Solver)
}

// instance is one built, not yet run, input of a workload. Its closures
// hold the simulated system, so it stays alive until the heap is measured.
type instance struct {
	run   func()
	check func(ps *pass) error // fills ps.sim and times the conformance check
}

var workloads = map[string]*workload{}

func init() {
	for _, w := range []*workload{
		{
			name:      "pal-decode",
			why:       "the §VI-A PAL decoder: the data plane does the work and no solver runs online",
			instances: 1,
			build:     buildPAL,
		},
		{
			name:      "serve",
			why:       "the serve campaign's fleet: many small streams, rebalancing, float-then-exact solver",
			instances: 3,
			fleet:     serveFleet,
		},
		{
			name:      "churn",
			why:       "admission churn under the default exact solver with rolling chain kills",
			instances: 3,
			fleet:     churnFleet,
		},
	} {
		if w.fleet != nil {
			w.build = fleetBuilder(w.fleet)
		}
		workloads[w.name] = w
	}
}

// A pass builds its instances at least minSetups times and until
// setupBudget has passed (at most maxSetups times), each time after a
// garbage collection; setup_s is the median build time, and the last
// build is the one that runs.
const (
	minSetups   = 5
	maxSetups   = 2000
	setupBudget = 200 * time.Millisecond
)

// pass is one set-up and run of a workload.
type pass struct {
	setup, run, check time.Duration
	allocBytes        uint64
	mallocs           uint64
	gcCycles          uint32
	liveHeap          uint64
	sim               simStats
	admitCycles       []uint64
	obs               *observer
}

// simStats holds every simulated statistic of a pass, summed over its
// instances. They are a pure function of workload and seed, so every pass
// of a run must agree on them exactly, traced or not.
type simStats struct {
	Cycles, Events  uint64
	Offered         int // arrivals on a fleet, input samples on pal
	Admitted        int
	Rejected, Lost  int
	Samples         uint64 // sink output samples
	AdmitP50        uint64 // cycles from arrival to EvArrive
	AdmitP90        uint64
	SlackMin        int64 // smallest bound minus measured value, in cycles
	Blocks, Retries uint64
	ReconfigCycles  uint64
	GatewayBusy     uint64 // reconfiguring or streaming
	TileBusy        float64
	Tiles           int
	BufferPeak      int
	Verdicts        int
	BlocksChecked   int
	LadderSteps     int
	RebalanceMoves  int
	ClusterRetries  int
	Solve           solveCounts
}

// failShare is the share of offered work that was refused or lost.
func (s simStats) failShare() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Rejected+s.Lost) / float64(s.Offered)
}

func (s simStats) reconfigShare() float64 {
	if s.GatewayBusy == 0 {
		return 0
	}
	return float64(s.ReconfigCycles) / float64(s.GatewayBusy)
}

func (s simStats) busyShare() float64 {
	if s.Tiles == 0 {
		return 0
	}
	return s.TileBusy / float64(s.Tiles)
}

// instanceSeeds derives the seeds of a pass's instances with splitmix64;
// the first is the benchmark seed itself. Seeds are never 0, which the
// traffic generator refuses, so seed 0 is replaced by a derived one.
func instanceSeeds(seed uint64, n int) []uint64 {
	var seeds []uint64
	if seed != 0 {
		seeds = append(seeds, seed)
	}
	x := seed
	for len(seeds) < n {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		if z ^= z >> 31; z != 0 {
			seeds = append(seeds, z)
		}
	}
	return seeds
}

// pass builds the workload's instances repeatedly, runs the last build
// with a clean heap, and checks every instance.
func (w *workload) pass(seed uint64, o *observer) (*pass, error) {
	ps := &pass{obs: o, sim: simStats{SlackMin: math.MaxInt64}}
	seeds := instanceSeeds(seed, w.instances)
	var (
		insts  []*instance
		setups []float64
	)
	start := time.Now()
	for len(setups) < minSetups || (time.Since(start) < setupBudget && len(setups) < maxSetups) {
		insts = make([]*instance, len(seeds))
		var err error
		runtime.GC() // every build starts from the same clean heap
		t0 := time.Now()
		o.tr.timed("setup", "setup", func() {
			for i, s := range seeds {
				if insts[i], err = w.build(s, o); err != nil {
					return
				}
			}
		})
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
	}
	ps.setup = time.Duration(median(setups) * 1e9)
	o.solves, o.solveTotal, o.counts, o.problems = nil, 0, solveCounts{}, nil

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	o.tr.timed("run", "sim", func() {
		for _, in := range insts {
			in.run()
		}
	})
	ps.run = time.Since(t0)
	runtime.ReadMemStats(&m1)
	ps.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ps.mallocs = m1.Mallocs - m0.Mallocs
	ps.gcCycles = m1.NumGC - m0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ps.liveHeap = m1.HeapAlloc
	runtime.KeepAlive(insts)

	for i, in := range insts {
		if err := in.check(ps); err != nil {
			return ps, fmt.Errorf("instance seed %d: %w", seeds[i], err)
		}
	}
	ps.sim.AdmitP50, ps.sim.AdmitP90 = percentileU(ps.admitCycles, 50), percentileU(ps.admitCycles, 90)
	if ps.sim.SlackMin == math.MaxInt64 {
		ps.sim.SlackMin = 0 // no bounded step was taken
	}
	ps.sim.Solve = o.counts
	return ps, nil
}

// ---- pal-decode ----------------------------------------------------------

// palSeconds of audio are decoded per pass, as examples/paldecoder does by
// default.
const palSeconds = 0.1

// palParams is the §VI-A demonstrator. The seed picks the test tones: a
// root semitone between C5 and B5 and its major third, so seed 0 decodes
// the example's C5/E5 pair.
func palParams(seed uint64) pal.Params {
	p := pal.DefaultParams()
	p.Seconds = palSeconds
	root := 3 + int(seed%12) // semitones above A4
	p.ToneL = 440 * math.Pow(2, float64(root)/12)
	p.ToneR = 440 * math.Pow(2, float64(root+4)/12)
	return p
}

// palExpectedSamples is the number of stereo samples the decoder must
// deliver: every complete stage-1 block yields η1/D words for stage 2, and
// every complete stage-2 block η2/D audio samples.
func palExpectedSamples(p pal.Params) int {
	d := int64(p.Decimation)
	in := int64(p.Seconds * p.FrontendRate())
	mid := in / p.Blocks[0] * p.Blocks[0] / d
	return int(mid / p.Blocks[2] * p.Blocks[2] / d)
}

// palRMSRef is the RMS of each decoded channel for the default tone
// amplitude, as examples/paldecoder prints it.
const palRMSRef = 2884

func buildPAL(seed uint64, o *observer) (*instance, error) {
	p := palParams(seed)
	d, err := pal.Build(p)
	if err != nil {
		return nil, err
	}
	return &instance{
		run: func() { d.Run(sim.Time(p.Seconds*p.ClockHz) * 2) },
		check: func(ps *pass) error {
			o.tr.timed("conformance", "conformance", func() { err = palCheck(p, d, ps) })
			return err
		},
	}, nil
}

// palCheck fills the simulated statistics and checks the decoded audio:
// no sample dropped or overflowed, the exact sample count, each channel's
// tone well above the other channel's, and every stream's worst block
// turnaround within γ̂s (Eq. 4).
func palCheck(p pal.Params, d *pal.Decoder, ps *pass) error {
	s := &ps.sim
	t0 := time.Now()
	rep := d.Sys.Report()
	model := pal.AnalysisModel(p)
	var overflows, in uint64
	for i, sr := range rep.PerStream {
		in += sr.SamplesIn
		s.Blocks += sr.Blocks
		s.Retries += sr.Retries
		overflows += sr.Overflows
		gamma, err := model.GammaHat(i)
		if err != nil {
			return err
		}
		s.SlackMin = min(s.SlackMin, int64(gamma)-int64(sr.MaxTurnaround))
		s.BufferPeak = max(s.BufferPeak, fifoPeak(d.Sys.Strs[i]))
	}
	ps.check += time.Since(t0)
	s.BlocksChecked += int(s.Blocks)
	s.Cycles += d.Sys.K.Now()
	s.Events += d.Sys.K.Processed
	s.Offered += int(in)
	s.Lost += int(overflows)
	s.Admitted += len(rep.PerStream)
	s.Samples += uint64(len(d.L))
	s.ReconfigCycles += rep.ReconfigCycles
	s.GatewayBusy += rep.ReconfigCycles + rep.StreamingCycles
	for _, b := range rep.TileBusy {
		s.TileBusy += b
		s.Tiles++
	}

	if overflows > 0 {
		return fmt.Errorf("pal: %d samples overflowed", overflows)
	}
	if want := palExpectedSamples(p); len(d.L) != want || len(d.R) != want {
		return fmt.Errorf("pal: decoded %d/%d stereo samples, want %d", len(d.L), len(d.R), want)
	}
	if s.SlackMin < 0 {
		return fmt.Errorf("pal: a block turnaround exceeded γ̂s by %d cycles", -s.SlackMin)
	}
	// Skip the filters' start-up transient, as the example does.
	l, r := d.L[200:], d.R[200:]
	for _, ch := range []struct {
		name      string
		x         []int32
		tone, off float64
	}{{"left", l, p.ToneL, p.ToneR}, {"right", r, p.ToneR, p.ToneL}} {
		ratio := pal.GoertzelPower(ch.x, ch.tone, p.AudioRate) / (1 + pal.GoertzelPower(ch.x, ch.off, p.AudioRate))
		rms := pal.RMS(ch.x)
		if ratio < 100 {
			return fmt.Errorf("pal: %s channel tone power ratio %.3g, want >= 100", ch.name, ratio)
		}
		if rms < 0.8*palRMSRef || rms > 1.2*palRMSRef {
			return fmt.Errorf("pal: %s channel RMS %.0f, want %d ±20%%", ch.name, rms, palRMSRef)
		}
	}
	return nil
}

// fifoPeak is the larger high-water occupancy of a stream's two C-FIFOs
// (a released stream has none).
func fifoPeak(st *mpsoc.Stream) int {
	peak := 0
	for _, f := range []*cfifo.FIFO{st.In, st.Out} {
		if f != nil {
			_, _, p := f.BufferStats()
			peak = max(peak, p)
		}
	}
	return peak
}

// ---- fleet workloads -----------------------------------------------------

// fleet is one fleet instance: the platform, its traffic and the window
// the conformance check covers.
type fleet struct {
	cfg         cluster.Config
	horizon     sim.Time
	traffic     cluster.Profile
	conf        conformance.Options
	minAdmitted int
	// golden, when set, checks the run against a recorded transcript.
	golden func(c *cluster.Controller, ops []cluster.Op, res []cluster.ChainConformance) error
}

// fleetConfig is the fleet fixture the chaos and serve campaigns share.
func fleetConfig(retryLimit int, residentPeriod int64, inCap, outCap int) cluster.Config {
	return cluster.Config{
		EntryCost:    15,
		ExitCost:     1,
		HopLatency:   1,
		Reconfig:     50,
		DrainTimeout: 600,
		Recovery: gateway.Recovery{
			Enabled: true, RetryLimit: 2,
			Checkpoint: 4, CheckpointCost: 5, ValueExact: true,
		},
		PerSlotCost:      10,
		Doctor:           fault.DoctorConfig{Window: 4_000, StallLimit: 3, DistinctStreams: 1},
		Retry:            fault.Backoff{Base: 200, Factor: 2, Cap: 3_200, Limit: retryLimit},
		ResidentPeriod:   residentPeriod,
		ResidentPriority: 100,
		InCapacity:       inCap,
		OutCapacity:      outCap,
		CollectOutputs:   true,
	}
}

// serveFleet is `accelshare serve` (full campaign): eight chains, the
// diurnal open-loop traffic with a persistent flash crowd, the rebalancer,
// and the float-then-exact-verify solver stack. The seed is the traffic
// seed; seed 24601 is the campaign's golden run.
func serveFleet(seed uint64) (*fleet, solve.Solver) {
	cfg := fleetConfig(8, 150, 512, 256)
	cfg.ReclaimSlots = true
	cfg.Rebalance = cluster.RebalanceConfig{
		Every: 25_000, Start: 50_000, Stop: 1_750_000,
		HighWater: big.NewRat(1, 10), MaxMovesPerTick: 2,
	}
	for i := 0; i < 8; i++ {
		cost := sim.Time(1)
		if i >= 6 {
			cost = 25
		}
		cfg.Chains = append(cfg.Chains, cluster.ChainSpec{Name: fmt.Sprintf("c%d", i), AccelCost: cost, ReserveSlots: 8})
	}
	f := &fleet{
		cfg:     cfg,
		horizon: 1_900_000,
		traffic: cluster.Profile{
			Seed: seed, Start: 1_000, End: 1_700_000,
			MeanSpacing: 1_500, MinLifetime: 20_000, MeanLifetime: 40_000,
			Periods: []int64{300, 600}, Priorities: []int{1, 3, 5},
			DiurnalPeriod: 400_000, DiurnalAmplitude: 50,
			FlashAt: 900_000, FlashCount: 8, FlashSpacing: 200,
			FlashPeriod: 300, FlashLifetime: 0,
		},
		conf: conformance.Options{
			After: 1_780_000, MinBlocks: 3, FilterQueued: true,
			ReplayBound: int64(cfg.Recovery.Checkpoint),
		},
		minAdmitted: 1_000,
	}
	if seed == serveGoldenSeed {
		f.golden = serveGolden
	}
	exact := &solve.Exact{ILPStreamCap: 1}
	return f, &solve.Incremental{Inner: &solve.Fast{Fallback: exact}}
}

// churnFleet is the chaos soak's fleet (two fast and two slow serving
// chains, a warm spare and a late spare) under the production default
// solver, which stays on the exact ILP up to 24 streams, with denser
// traffic and slot reclaiming so that admissions keep coming. Three rolling
// kills walk failover, evacuation and shedding, and the late spare heals
// in.
func churnFleet(seed uint64) (*fleet, solve.Solver) {
	wedge := func(at sim.Time) *fault.Plan {
		return &fault.Plan{Faults: []fault.Fault{{Kind: fault.WedgeLink, Site: 0, At: at}}}
	}
	cfg := fleetConfig(5, 75, 256, 128)
	cfg.ReclaimSlots = true
	cfg.Chains = []cluster.ChainSpec{
		{Name: "c0", AccelCost: 1, ReserveSlots: 6, Faults: wedge(40_000)},
		{Name: "c1", AccelCost: 1, ReserveSlots: 6, Faults: wedge(120_000)},
		{Name: "c2", AccelCost: 25, ReserveSlots: 6, Faults: wedge(90_000)},
		{Name: "c3", AccelCost: 25, ReserveSlots: 6},
		{Name: "sp0", AccelCost: 1, ReserveSlots: 6, Spare: true},
		{Name: "sp1", AccelCost: 1, ReserveSlots: 6, Spare: true, OnlineAt: 150_000},
	}
	return &fleet{
		cfg:     cfg,
		horizon: 215_000,
		traffic: cluster.Profile{
			Seed: seed, Start: 1_000, End: 110_000,
			MeanSpacing: 2_500, MinLifetime: 30_000, MeanLifetime: 45_000,
			Periods: []int64{75, 150, 300}, Priorities: []int{1, 3, 5},
			FlashAt: 112_000, FlashCount: 4, FlashSpacing: 150,
			FlashPeriod: 150, FlashLifetime: 30_000,
		},
		conf: conformance.Options{After: 175_000, MinBlocks: 3, FilterQueued: true},
	}, solve.Default(0, 0)
}

// fleetBuilder builds one fleet instance: traffic, controller (with the
// timed solver wrapper) and the timed Submit/Depart schedule.
func fleetBuilder(mk func(uint64) (*fleet, solve.Solver)) func(uint64, *observer) (*instance, error) {
	return func(seed uint64, o *observer) (*instance, error) {
		f, inner := mk(seed)
		f.cfg.Solver = &timedSolver{inner: inner, o: o}
		ops := f.traffic.Ops()
		c, err := cluster.New(f.cfg)
		if err != nil {
			return nil, err
		}
		o.schedule(c, ops)
		return &instance{
			run: func() { c.Run(f.horizon) },
			check: func(ps *pass) error {
				t0 := time.Now()
				var res []cluster.ChainConformance
				o.tr.timed("conformance", "conformance", func() { res, err = c.Conformance(f.conf) })
				ps.check += time.Since(t0)
				if err != nil {
					return err
				}
				return fleetCheck(f, c, ops, res, ps)
			},
		}, nil
	}
}

// fleetCheck fills the simulated statistics and checks the run: every
// ladder step within its bound, every live stream contiguous, zero Eq.
// 2/4/5 violations past the cut, and the admitted floor.
func fleetCheck(f *fleet, c *cluster.Controller, ops []cluster.Op, res []cluster.ChainConformance, ps *pass) error {
	s := &ps.sim
	k := c.System().K
	s.Cycles += k.Now()
	s.Events += k.Processed

	arrivedAt := map[string]sim.Time{}
	for _, op := range ops {
		if !op.Depart {
			s.Offered++
			arrivedAt[op.Req.Name] = op.At
		}
	}
	admitted := 0
	for _, e := range c.Events() {
		switch e.Kind {
		case cluster.EvArrive:
			admitted++
			ps.admitCycles = append(ps.admitCycles, e.At-arrivedAt[e.Stream])
		case cluster.EvReject:
			s.Rejected++
		case cluster.EvLost:
			s.Lost++
		case cluster.EvVerdict:
			s.Verdicts++
		case cluster.EvRetry:
			s.ClusterRetries++
		case cluster.EvRebalanced:
			s.RebalanceMoves++
		}
	}
	s.Admitted += admitted

	var err error
	fail := func(format string, a ...any) {
		if err == nil {
			err = fmt.Errorf(format, a...)
		}
	}
	for _, st := range c.LadderSteps() {
		s.LadderSteps++
		s.SlackMin = min(s.SlackMin, int64(st.Bound)-int64(st.Measured))
		if st.Measured > st.Bound {
			fail("%s step of %s at %d: measured %d > bound %d", st.Rung, st.Stream, st.At, st.Measured, st.Bound)
		}
	}
	for _, ss := range c.StreamStatuses() {
		s.Blocks += ss.Blocks
		s.Samples += ss.Samples
		if ss.State == "live" && !ss.ContiguousOutputs {
			fail("live stream %s lost or duplicated samples", ss.Name)
		}
	}
	for _, r := range c.System().Report() {
		s.ReconfigCycles += r.ReconfigCycles
		s.GatewayBusy += r.ReconfigCycles + r.StreamingCycles
		for _, sr := range r.PerStream {
			s.Retries += sr.Retries
		}
		for _, b := range r.TileBusy {
			s.TileBusy += b
			s.Tiles++
		}
	}
	for _, ch := range c.System().Chains {
		for _, st := range ch.Strs {
			s.BufferPeak = max(s.BufferPeak, fifoPeak(st))
		}
	}
	violations := 0
	for _, cc := range res {
		s.BlocksChecked += cc.Result.Checked
		violations += len(cc.Result.Violations)
	}
	if violations > 0 {
		fail("%d Eq. 2/4/5 violations after t=%d", violations, f.conf.After)
	}
	if admitted < f.minAdmitted {
		fail("%d admitted lifetimes, want >= %d", admitted, f.minAdmitted)
	}
	if err == nil && f.golden != nil {
		err = f.golden(c, ops, res)
	}
	return err
}

// serveGoldenSeed is the seed of cmd/accelshare/testdata/serve.golden.
const serveGoldenSeed = 24601

// serveGolden checks the traffic summary, the completed move count and the
// conformance lines of serve.golden.
func serveGolden(c *cluster.Controller, ops []cluster.Op, res []cluster.ChainConformance) error {
	counts := map[cluster.EventKind]int{}
	for _, e := range c.Events() {
		counts[e.Kind]++
	}
	arrivals, departures := 0, 0
	for _, op := range ops {
		if op.Depart {
			departures++
		} else {
			arrivals++
		}
	}
	got := []string{
		fmt.Sprintf("background lifetimes: %d (departures scheduled %d)", arrivals-8, departures),
		fmt.Sprintf("admitted=%d rejected=%d departed=%d shed=%d readmitted=%d lost=%d retries=%d",
			counts[cluster.EvArrive], counts[cluster.EvReject], counts[cluster.EvDepart],
			counts[cluster.EvShed], counts[cluster.EvReadmit], counts[cluster.EvLost], counts[cluster.EvRetry]),
		fmt.Sprintf("completed moves=%d", counts[cluster.EvRebalanced]),
	}
	for _, cc := range res {
		got = append(got, fmt.Sprintf("chain %-4s %d streams, %d blocks checked, %d violations",
			cc.Chain, cc.Streams, cc.Result.Checked, len(cc.Result.Violations)))
	}
	want := []string{
		"background lifetimes: 1555 (departures scheduled 1555)",
		"admitted=1371 rejected=192 departed=1328 shed=0 readmitted=0 lost=0 retries=69",
		"completed moves=29",
		"chain c0   8 streams, 800 blocks checked, 0 violations",
		"chain c1   9 streams, 896 blocks checked, 0 violations",
		"chain c2   6 streams, 760 blocks checked, 0 violations",
		"chain c3   7 streams, 799 blocks checked, 0 violations",
		"chain c4   7 streams, 865 blocks checked, 0 violations",
		"chain c5   7 streams, 714 blocks checked, 0 violations",
		"chain c6   3 streams, 666 blocks checked, 0 violations",
		"chain c7   4 streams, 799 blocks checked, 0 violations",
	}
	if len(got) != len(want) {
		return fmt.Errorf("serve golden: %d summary lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("serve golden: got %q, want %q", got[i], want[i])
		}
	}
	return nil
}
