package gateway

import (
	"fmt"
	"testing"

	"accelshare/internal/sim"
)

// BenchmarkBlockService measures one full block turn (reconfig + stream +
// drain) through the hand-wired single-accelerator rig.
func BenchmarkBlockService(b *testing.B) {
	benchBlockService(b, 0)
}

// BenchmarkArbitrationTombstones is BenchmarkBlockService behind 0 and 1000
// released slots: arbitration walks only live slots, so ns/op stays flat in
// the chain's slot history.
func BenchmarkArbitrationTombstones(b *testing.B) {
	for _, n := range []int{0, 1000} {
		b.Run(fmt.Sprintf("released=%d", n), func(b *testing.B) { benchBlockService(b, n) })
	}
}

func benchBlockService(b *testing.B, tombstones int) {
	k := sim.NewKernel()
	r := benchRig(b, k, tombstones)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			for !r.in.TryWrite(sim.Word(j)) {
				k.RunAll()
			}
		}
		k.RunAll()
		for {
			if _, ok := r.out.TryRead(); !ok {
				break
			}
		}
		k.RunAll()
	}
}
