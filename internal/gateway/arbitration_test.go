package gateway

import (
	"math/rand"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/sim"
)

// refPick is the full-scan arbiter the live-slot index replaced: every slot
// of the table from the round-robin base, wrapping around, tombstones
// included (they are permanently suspended, so never ready).
func refPick(p *Pair) int {
	n := len(p.streams)
	base := p.rr
	if p.cfg.Arbiter == FixedPriority {
		base = 0
	}
	for off := 0; off < n; off++ {
		if i := (base + off) % n; p.ready(i) {
			return i
		}
	}
	return -1
}

// refQueued is the full-scan eligibility tracker the live-slot index
// replaced, evaluated without side effects: the queued flag and queue time
// every slot must hold after trackQueued runs now.
func refQueued(p *Pair) ([]bool, []sim.Time) {
	queued := make([]bool, len(p.streams))
	at := make([]sim.Time, len(p.streams))
	for i, s := range p.streams {
		queued[i], at[i] = s.queued, s.queuedAt
		if s.Quarantined || s.Suspended {
			continue
		}
		if !s.queued && p.ready(i) && !(p.state != stIdle && i == p.active) {
			queued[i], at[i] = true, p.k.Now()
		}
	}
	return queued, at
}

// arbRig drives one gateway pair through random slot-table churn.
type arbRig struct {
	*rig
	t     *testing.T
	rng   *rand.Rand
	ports int
}

func (a *arbRig) newStream(suspended bool) *Stream {
	a.ports += 2
	in, err := newTestFIFO(a.rig, "in", 8, 3, 0, 100+a.ports, 100+a.ports)
	if err != nil {
		a.t.Fatal(err)
	}
	out, err := newTestFIFO(a.rig, "out", 8, 2, 4, 100+a.ports, 101+a.ports)
	if err != nil {
		a.t.Fatal(err)
	}
	blk := int64(1 + a.rng.Intn(4))
	return &Stream{
		Name: "s", Block: blk, OutBlock: blk, Reconfig: 5,
		In: in, Out: out, Engines: []accel.Engine{&accel.Gain{}},
		Suspended: suspended,
	}
}

// liveSlots lists the slots that are not tombstones, ascending.
func (a *arbRig) liveSlots() []int {
	var out []int
	for i, s := range a.pair.streams {
		if !s.Released {
			out = append(out, i)
		}
	}
	return out
}

func (a *arbRig) pause() {
	if err := a.pair.RequestPause(func() {}); err != nil {
		a.t.Fatal(err)
	}
	a.k.RunAll()
	if !a.pair.Paused() {
		a.t.Fatal("pause did not land")
	}
}

func (a *arbRig) applySlots(u ...SlotUpdate) {
	if err := a.pair.ApplySlots(u, 1, nil); err != nil {
		a.t.Fatal(err)
	}
	a.k.RunAll()
}

// step performs one random operation on the paused pair. It returns with the
// pair paused again and the kernel idle.
func (a *arbRig) step() {
	live := a.liveSlots()
	var slot int
	if len(live) > 0 {
		slot = live[a.rng.Intn(len(live))]
	}
	switch op := a.rng.Intn(9); {
	case op == 0 || len(live) == 0:
		if _, err := a.pair.AddStreamLive(a.newStream(a.rng.Intn(2) == 0)); err != nil {
			a.t.Fatal(err)
		}
	case op == 1:
		if !a.pair.streams[slot].Suspended {
			a.applySlots(SlotUpdate{Stream: slot, Suspend: true})
		}
		if _, err := a.pair.ReleaseSlot(slot); err != nil {
			a.t.Fatal(err)
		}
	case op == 2:
		a.applySlots(SlotUpdate{Stream: slot, Suspend: true})
	case op == 3:
		a.applySlots(SlotUpdate{Stream: slot, Activate: true})
	case op == 4:
		a.pair.streams[slot].Quarantined = true // what the fault path sets
	case op == 5:
		a.applySlots(SlotUpdate{Stream: slot, Unquarantine: true})
	case op == 6:
		in := a.pair.streams[slot].In
		for n := a.rng.Intn(6); n > 0 && in.TryWrite(sim.Word(n)); n-- {
			a.k.RunAll()
		}
		a.k.RunAll()
	case op == 7:
		out := a.pair.streams[slot].Out
		for n := a.rng.Intn(6); n > 0; n-- {
			if _, ok := out.TryRead(); !ok {
				break
			}
		}
		a.k.RunAll()
	default:
		// Let the real arbiter serve blocks, then drain to the next pause.
		a.pair.Resume()
		a.k.RunAll()
		a.pause()
	}
}

// check compares the live-index arbitration against the full-scan oracle in
// the pair's current state, from every round-robin base and with every live
// slot standing in as the in-flight stream.
func (a *arbRig) check(at int) {
	p := a.pair
	if got, want := p.live, a.liveSlots(); !equalInts(got, want) {
		a.t.Fatalf("step %d: live index %v, want %v", at, got, want)
	}
	savedRR, savedState, savedActive := p.rr, p.state, p.active
	for rr := 0; rr < len(p.streams); rr++ {
		p.rr = rr
		if got, want := p.pick(), refPick(p); got != want {
			a.t.Fatalf("step %d rr=%d arbiter=%v: pick %d, full scan %d", at, rr, p.cfg.Arbiter, got, want)
		}
	}
	p.rr = savedRR
	if len(p.streams) > 0 && a.rng.Intn(2) == 0 {
		p.state, p.active = stStreaming, a.rng.Intn(len(p.streams))
	}
	wantQ, wantAt := refQueued(p)
	p.trackQueued()
	for i, s := range p.streams {
		if s.queued != wantQ[i] || s.queuedAt != wantAt[i] {
			a.t.Fatalf("step %d slot %d: queued=%v at %d, full scan %v at %d",
				at, i, s.queued, s.queuedAt, wantQ[i], wantAt[i])
		}
	}
	p.state, p.active = savedState, savedActive
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestArbitrationMatchesFullScan is the differential test for the live-slot
// index: random AddStreamLive / ReleaseSlot / suspend / activate /
// quarantine / unquarantine churn, interleaved with FIFO fills, output
// drains and real arbitration runs, must leave the arbiter's pick and every
// stream's queue time equal to the full-table scan they replaced.
func TestArbitrationMatchesFullScan(t *testing.T) {
	for _, arb := range []Arbitration{RoundRobin, FixedPriority} {
		for seed := int64(1); seed <= 12; seed++ {
			a := &arbRig{
				rig: newRig(t, Config{Name: "arb", EntryCost: 1, ExitCost: 1, Arbiter: arb}),
				t:   t, rng: rand.New(rand.NewSource(seed)),
			}
			for i := 0; i < 3; i++ {
				if err := a.pair.AddStream(a.newStream(false)); err != nil {
					t.Fatal(err)
				}
			}
			a.pair.Start()
			a.pause()
			released := 0
			for i := 0; i < 250; i++ {
				a.step()
				a.check(i)
			}
			for _, s := range a.pair.streams {
				if s.Released {
					released++
				}
			}
			if released == 0 || len(a.pair.live) == 0 {
				t.Fatalf("arbiter %v seed %d: churn left %d tombstones and %d live slots; the walk is not exercising both",
					arb, seed, released, len(a.pair.live))
			}
		}
	}
}

// TestArbitrationZeroAlloc backs the //accellint:noalloc annotations on
// trackQueued, tryStart and pick: a wake-up that scans a slot table full of
// tombstones and finds no ready stream allocates nothing.
func TestArbitrationZeroAlloc(t *testing.T) {
	r := newRig(t, Config{Name: "za", EntryCost: 1, ExitCost: 1})
	for i := 0; i < 64; i++ {
		s, _, _ := r.addStream(t, "t", 4, 8, 8, 100+2*i)
		s.Suspended = true
	}
	for i := 0; i < 4; i++ {
		r.addStream(t, "s", 4, 8, 8, 300+2*i)
	}
	for slot := 0; slot < 64; slot += 2 {
		if _, err := r.pair.ReleaseSlot(slot); err != nil {
			t.Fatal(err)
		}
	}
	r.pair.Start()
	r.k.RunAll()
	if a := testing.AllocsPerRun(200, func() {
		r.pair.trackQueued()
		r.pair.tryStart()
	}); a != 0 {
		t.Fatalf("arbitration scan allocates %v/op, want 0", a)
	}
	if r.pair.state != stIdle {
		t.Fatal("a block started: the guard must measure the scan alone")
	}
}
