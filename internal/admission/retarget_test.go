package admission

// Retarget: after a chain failover moves every stream to the standby pair,
// the admission controller must re-attach to the new chain — refresh its
// slot map and block sizes from the standby's slot table, drop any stale
// transition, and keep admitting/removing streams there.

import (
	"math/big"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

// buildFailoverBed is buildBed plus an empty standby chain, whose
// accelerator costs standbyCost cycles per sample, and a failover
// controller wired between the two.
func buildFailoverBed(t *testing.T, standbyCost sim.Time) (*bed, *mpsoc.FailoverController) {
	t.Helper()
	rate := big.NewRat(1, period)
	model := demoModel(
		[]string{"s1", "s2", "s3", "s4"},
		[]*big.Rat{rate, rate, rate, rate},
	)
	if _, err := model.ComputeBlockSizes(); err != nil {
		t.Fatal(err)
	}
	var specs []mpsoc.StreamSpec
	for i := range model.Streams {
		specs = append(specs, mpsoc.StreamSpec{
			Name:         model.Streams[i].Name,
			Block:        model.Streams[i].Block,
			Decimation:   1,
			Reconfig:     rsCycles,
			InCapacity:   128,
			OutCapacity:  128,
			SourcePeriod: period,
			Engines:      []accel.Engine{&accel.Gain{}},
		})
	}
	ms, err := mpsoc.BuildMulti(mpsoc.MultiConfig{
		Chains: []mpsoc.ChainSpec{
			{
				Name: "demo", EntryCost: entryCost, ExitCost: 1,
				Mode:    gateway.ReconfigFixed,
				Accels:  []mpsoc.AccelSpec{{Name: "acc", Cost: 1, NICapacity: 2}},
				Streams: specs, DrainTimeout: 200,
				Recovery:          recoveryCfg(),
				RecordTurnarounds: true,
				ReserveSlots:      2,
			},
			{
				Name: "demo-b", EntryCost: entryCost, ExitCost: 1,
				Mode:    gateway.ReconfigFixed,
				Accels:  []mpsoc.AccelSpec{{Name: "acc-b", Cost: standbyCost, NICapacity: 2}},
				Standby: true, DrainTimeout: 200,
				Recovery:          recoveryCfg(),
				RecordTurnarounds: true,
				ReserveSlots:      2,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(ms, Config{
		Chain:       0,
		Model:       model,
		PerSlotCost: 10,
		Engines:     func(string) []accel.Engine { return []accel.Engine{&accel.Gain{}} },
	})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := mpsoc.NewFailover(ms, mpsoc.FailoverConfig{
		Primary: 0, Standby: 1,
		Model:       model.Clone(),
		PerSlotCost: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms.Chains[0].Pair.Start()
	ms.Chains[1].Pair.Start()
	return &bed{ms: ms, ctrl: ctrl, model: model}, fc
}

func TestRetargetValidation(t *testing.T) {
	b, _ := buildFailoverBed(t, 1)
	if err := b.ctrl.Retarget(0); err == nil {
		t.Error("retarget onto the current chain accepted")
	}
	if err := b.ctrl.Retarget(7); err == nil {
		t.Error("retarget out of range accepted")
	}
	// The standby carries no streams yet: every admitted slot is unmappable.
	if err := b.ctrl.Retarget(1); err == nil {
		t.Error("retarget onto a chain missing the admitted streams accepted")
	}
}

// TestRetargetAfterFailover: operator-triggered failover mid-run, Retarget,
// then the controller keeps working on the standby — removing one stream and
// admitting a new one, with bounds holding after each transition.
func TestRetargetAfterFailover(t *testing.T) {
	b, fc := buildFailoverBed(t, 1)
	k := b.ms.K
	k.ScheduleAt(5_000, func() { fc.Trigger("operator") })
	k.Run(20_000)

	rec := fc.Record()
	if rec == nil {
		t.Fatal("failover never completed")
	}
	if rec.MeasuredCycles > rec.BoundCycles {
		t.Fatalf("failover cost %d > bound %d", rec.MeasuredCycles, rec.BoundCycles)
	}
	if err := b.ctrl.Retarget(1); err != nil {
		t.Fatal(err)
	}
	if !b.hasEvent(EvRetarget, "demo-b") {
		t.Error("retarget not recorded in the event log")
	}

	// The controller now manages the standby chain: run on, then remove s4
	// and admit a new stream there.
	k.Run(40_000)
	var removed, added *Verdict
	b.ctrl.RemoveStream("s4", func(v Verdict) { removed = &v })
	k.Run(60_000)
	if removed == nil || !removed.Accepted {
		t.Fatalf("remove s4 on the standby: %+v", removed)
	}
	b.ctrl.AddStream(addReq("s9", 1, 300, 128, 128, 300), func(v Verdict) { added = &v })
	k.Run(90_000)
	if added == nil || !added.Accepted {
		t.Fatalf("add s9 on the standby: %+v", added)
	}
	found := false
	for _, st := range b.ms.Chains[1].Strs {
		if st.Spec.Name == "s9" {
			found = true
		}
	}
	if !found {
		t.Error("s9 not built on the standby chain")
	}
	// Settle past the add's transition, then the new model's bounds hold.
	k.Run(140_000)
	b.checkBounds(t, 95_000)
}

// TestRetargetReleasesStaleTransition: a transition left mid-flight on the
// failed primary (its pause callback died with the freeze) must not wedge
// the controller forever — Retarget clears the stale busy gate.
func TestRetargetReleasesStaleTransition(t *testing.T) {
	b, fc := buildFailoverBed(t, 1)
	k := b.ms.K

	// Start an add whose staged transition will be killed by the freeze.
	var verdict *Verdict
	k.ScheduleAt(3_000, func() {
		b.ctrl.AddStream(addReq("s5", 1, 300, 128, 128, 300), func(v Verdict) { verdict = &v })
	})
	// Freeze the primary immediately after: the pause is pending, the bus
	// transfer may be in flight — all of it dies with the pair.
	k.ScheduleAt(3_010, func() {
		if err := fc.Trigger("operator"); err != nil {
			t.Errorf("trigger: %v", err)
		}
	})
	k.Run(20_000)
	if fc.Record() == nil {
		t.Fatal("failover never completed")
	}
	if err := b.ctrl.Retarget(1); err != nil {
		t.Fatalf("retarget after a stale transition: %v", err)
	}
	_ = verdict // the interrupted add may or may not have completed; either is fine

	// The controller must accept new work on the standby.
	var added *Verdict
	b.ctrl.AddStream(addReq("s6", 1, 300, 128, 128, 300), func(v Verdict) { added = &v })
	k.Run(50_000)
	if added == nil || !added.Accepted {
		t.Fatalf("add s6 after retarget: %+v", added)
	}
}

// TestRetargetTakesStandbyChain: after a failover onto a slower standby
// (ρA = 16 > ε, so c0 rises from 15 to 16), the controller's model carries
// the standby's chain parameters, and the next transition's bound is
// computed at the standby's c0.
func TestRetargetTakesStandbyChain(t *testing.T) {
	b, fc := buildFailoverBed(t, 16)
	k := b.ms.K
	k.ScheduleAt(5_000, func() { fc.Trigger("operator") })
	k.Run(20_000)
	if fc.Record() == nil {
		t.Fatal("failover never completed")
	}
	if err := b.ctrl.Retarget(1); err != nil {
		t.Fatal(err)
	}
	ch := b.ctrl.Model().Chain
	if ch.Name != "demo-b" || len(ch.AccelCosts) != 1 || ch.AccelCosts[0] != 16 || ch.C0() != 16 {
		t.Fatalf("model chain after retarget = %+v, want the standby's (ρA = 16)", ch)
	}
	var want uint64
	for _, sn := range b.ms.Chains[1].Pair.Snapshot() {
		want = max(want, rsCycles+uint64(sn.Block+2)*16)
	}
	want += 4 * 10
	var removed *Verdict
	b.ctrl.RemoveStream("s4", func(v Verdict) { removed = &v })
	k.Run(30_000)
	if removed == nil || !removed.Accepted {
		t.Fatalf("remove s4 on the standby: %+v", removed)
	}
	if removed.BoundCycles != want {
		t.Errorf("remove bound %d, want max τ̂s at c0 = 16 + 4 slots × 10 = %d", removed.BoundCycles, want)
	}
}
