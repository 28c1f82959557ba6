package admission

import (
	"math/big"
	"strings"
	"testing"

	"accelshare/internal/solve"
)

// TestAdmitMigratedResidueFloor: a migrated stream's ηs is floored at
// MinBlock. Above Algorithm 1's least fixed point the floor is rounded up
// to a decimation multiple and the whole assignment re-verified exactly;
// a floor no assignment can carry is rejected infeasible before Import.
func TestAdmitMigratedResidueFloor(t *testing.T) {
	// req's Import stands in for an evacuation: it attaches the migrant to
	// the bed's reserved ring slot and counts its calls.
	req := func(b *bed, minBlock int64, imports *int) MigrateRequest {
		return MigrateRequest{
			Name: "m5", Rate: big.NewRat(1, 300), Reconfig: rsCycles, Decimation: 2,
			MinBlock: minBlock, InCapacity: 64, OutCapacity: 64,
			Import: func() (int, error) {
				*imports++
				spec := addReq("m5", 1, 300, 64, 64, 300).Spec
				spec.Block, spec.Decimation = 2, 2
				if _, err := b.ms.AttachStream(0, spec); err != nil {
					return 0, err
				}
				return len(b.ms.Chains[0].Strs) - 1, nil
			},
		}
	}

	t.Run("infeasible", func(t *testing.T) {
		b := buildBed(t, nil, 1, 128)
		imports := 0
		var v *Verdict
		b.ctrl.AdmitMigrated(req(b, 10_000, &imports), func(vv Verdict) { v = &vv })
		if v == nil {
			t.Fatal("an infeasible floor must be rejected immediately")
		}
		if v.Accepted || v.Reason != ReasonInfeasible || !strings.Contains(v.Detail, "floors eta at 10000") {
			t.Fatalf("verdict %+v, want infeasible residue floor", v)
		}
		if imports != 0 {
			t.Errorf("Import ran %d times for a rejected migration", imports)
		}
		if b.ctrl.Busy() || len(b.ctrl.Model().Streams) != 4 {
			t.Error("rejection touched the controller")
		}
	})

	t.Run("rounded", func(t *testing.T) {
		// Slow survivors: their Eq. 4 constraints keep enough ceiling slack
		// to carry a migrant block a few samples above the fixed point.
		b := buildBedAt(t, nil, 1, 128, 3000)
		k := b.ms.K
		k.Run(3000)
		// The floor must bind: find the least fixed point first.
		cand := b.ctrl.Model().Clone()
		cand.Streams = append(cand.Streams, b.ctrl.Model().Streams[0])
		cand.Streams[4].Name, cand.Streams[4].Rate = "m5", big.NewRat(1, 300)
		granularity := []int64{1, 1, 1, 1, 2}
		res, err := (&solve.Exact{}).Solve(&solve.Problem{Model: cand, Granularity: granularity})
		if err != nil {
			t.Fatal(err)
		}
		floor := res.Blocks[4] + 3 // odd offset from an even block: rounding is visible
		imports := 0
		var v *Verdict
		b.ctrl.AdmitMigrated(req(b, floor, &imports), func(vv Verdict) { v = &vv })
		if !k.RunUntil(k.Now()+60_000, func() bool { return v != nil }) {
			t.Fatal("verdict never arrived")
		}
		if !v.Accepted {
			t.Fatalf("migration rejected: %s %s", v.Reason, v.Detail)
		}
		got := v.Blocks[4].Block
		if want := floor + 1; got != want {
			t.Fatalf("migrant block %d, want the floor %d rounded up to %d", got, floor, want)
		}
		blocks := blocksOf(b.ctrl.Model())
		if ver := solve.Verify(b.ctrl.Model(), granularity, blocks); !ver.Feasible {
			t.Fatalf("floored assignment %v not feasible: %s", blocks, ver.Detail)
		}
		if slot := b.ctrl.gwSlot[4]; b.ms.Chains[0].Pair.Snapshot()[slot].Block != got {
			t.Errorf("gateway slot runs block %d, want %d", b.ms.Chains[0].Pair.Snapshot()[slot].Block, got)
		}
		if imports != 1 {
			t.Errorf("Import ran %d times, want 1", imports)
		}
	})
}
