package admission

// The controller reads the chain settings its bounds depend on from the
// chain itself: each stream's decimation from its spec, the checkpoint
// interval K and snapshot cost Csave from the gateway's recovery settings.
// These beds give the controller the model and nothing else about the chain.

import (
	"math/big"
	"testing"

	"accelshare/internal/accel"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

// buildSpecBed runs one chain of the given streams under rec, with one
// reserved slot, each ηs solved by Algorithm 1 at the stream's decimation
// and rate 1/SourcePeriod.
func buildSpecBed(t *testing.T, rec gateway.Recovery, specs []mpsoc.StreamSpec) *bed {
	t.Helper()
	model := demoModel(nil, nil)
	granularity := make([]int64, len(specs))
	for i, sp := range specs {
		model.Streams = append(model.Streams, core.Stream{
			Name: sp.Name, Rate: big.NewRat(1, int64(sp.SourcePeriod)), Reconfig: rsCycles,
		})
		granularity[i] = sp.Decimation
	}
	if _, err := model.ComputeBlockSizes(granularity...); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		specs[i].Block = model.Streams[i].Block
	}
	ms, err := mpsoc.BuildMulti(mpsoc.MultiConfig{
		Chains: []mpsoc.ChainSpec{{
			Name: "demo", EntryCost: entryCost, ExitCost: 1,
			Mode:              gateway.ReconfigFixed,
			Accels:            []mpsoc.AccelSpec{{Name: "acc", Cost: 1}},
			Streams:           specs,
			DrainTimeout:      200,
			Recovery:          rec,
			RecordTurnarounds: true,
			ReserveSlots:      1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(ms, Config{Chain: 0, Model: model, PerSlotCost: 10})
	if err != nil {
		t.Fatal(err)
	}
	ms.Chains[0].Pair.Start()
	return &bed{ms: ms, ctrl: ctrl, model: model}
}

func gainSpec(name string) mpsoc.StreamSpec {
	return mpsoc.StreamSpec{
		Name: name, Decimation: 1, Reconfig: rsCycles,
		InCapacity: 128, OutCapacity: 128, SourcePeriod: period,
		Engines: []accel.Engine{&accel.Gain{}},
	}
}

// TestDecimationFromChain: a CIC decimate-by-2 stream (η = 4, OutBlock 2)
// shares the chain with a plain stream. An accepted add re-programs every
// survivor; the CIC slot must keep OutBlock = η/2, or the exit gateway waits
// for outputs the engine never produces and the stream stalls into
// quarantine.
func TestDecimationFromChain(t *testing.T) {
	cic, err := accel.NewCIC(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec := gainSpec("cic")
	dec.Decimation = 2
	dec.Engines = []accel.Engine{cic}
	b := buildSpecBed(t, recoveryCfg(), []mpsoc.StreamSpec{dec, gainSpec("plain")})
	if got := b.model.Streams[0].Block; got != 4 {
		t.Fatalf("cic η = %d, want 4", got)
	}
	var v *Verdict
	b.ms.K.ScheduleAt(3_000, func() {
		b.ctrl.AddStream(addReq("s9", 1, 300, 128, 128, 300), func(x Verdict) { v = &x })
	})
	b.ms.K.Run(40_000)
	if v == nil || !v.Accepted {
		t.Fatalf("add: %+v", v)
	}
	sn := b.ms.Chains[0].Pair.Snapshot()[0]
	if sn.OutBlock*2 != sn.Block {
		t.Errorf("cic block %d programmed with OutBlock %d, want η/2", sn.Block, sn.OutBlock)
	}
	if sn.Stalls != 0 || sn.Quarantined {
		t.Errorf("cic stalled %d times (quarantined=%v) after the add", sn.Stalls, sn.Quarantined)
	}
	if 2*sn.SamplesOut+uint64(sn.Block) < sn.SamplesIn {
		t.Errorf("cic delivered %d outputs for %d inputs", sn.SamplesOut, sn.SamplesIn)
	}
}

// TestCheckpointFromChain: on a chain checkpointing every K = 4 samples at
// Csave = 5, a transition can wait for one in-flight block that pays its
// interior checkpoints, so the bound is max τ̂s(K) plus the bus cost. The
// sweep lands the add at every phase of the running blocks; the measured
// drain plus bus cost never exceeds that bound.
func TestCheckpointFromChain(t *testing.T) {
	const k, saveCost = 4, 5
	rec := gateway.Recovery{
		Enabled: true, RetryLimit: 2,
		Checkpoint: k, CheckpointCost: saveCost, ValueExact: true,
	}
	worst := uint64(1 << 63)
	for at := sim.Time(3_000); at <= 4_200; at += 7 {
		b := buildSpecBed(t, rec, []mpsoc.StreamSpec{gainSpec("s1"), gainSpec("s2"), gainSpec("s3")})
		want := b.model.MaxTauHatCheckpointed(k, saveCost) + 4*10
		if plain := b.model.MaxTauHatCheckpointed(0, 0) + 4*10; want <= plain {
			t.Fatalf("checkpointed bound %d not above the plain bound %d: the bed does not exercise K", want, plain)
		}
		var v *Verdict
		b.ms.K.ScheduleAt(at, func() {
			b.ctrl.AddStream(addReq("s9", 1, 300, 128, 128, 300), func(x Verdict) { v = &x })
		})
		b.ms.K.Run(at + 5_000)
		if v == nil || !v.Accepted {
			t.Fatalf("add at t=%d: %+v", at, v)
		}
		if v.BoundCycles != want {
			t.Fatalf("add at t=%d: bound %d, want max τ̂s(K=%d) + 4 slots × 10 = %d", at, v.BoundCycles, k, want)
		}
		measured := uint64(v.PauseWait) + v.BusCycles
		if measured > v.BoundCycles {
			t.Fatalf("add at t=%d: measured %d > bound %d", at, measured, v.BoundCycles)
		}
		worst = min(worst, v.BoundCycles-measured)
	}
	t.Logf("worst slack %d cycles", worst)
}
