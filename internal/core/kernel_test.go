package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// kernelSystem draws an n-stream chain whose exact utilisation is
// 1 − gap (gap = 0 keeps the drawn utilisation, somewhere in (0, 1)).
func kernelSystem(rng *rand.Rand, n int, gap *big.Rat) *System {
	s := &System{
		Chain: Chain{
			Name:       "k",
			AccelCosts: []uint64{uint64(1 + rng.Intn(4))},
			EntryCost:  uint64(1 + rng.Intn(16)),
			ExitCost:   uint64(1 + rng.Intn(3)),
			NICapacity: 2,
		},
		ClockHz: 1_000_000,
	}
	c0 := int64(s.Chain.C0())
	for i := 0; i < n; i++ {
		// Per-stream share of a utilisation below 0.9.
		rate := big.NewRat(s.ClockHz*int64(1+rng.Intn(90)), 100*int64(n)*c0)
		s.Streams = append(s.Streams, Stream{
			Name:     fmt.Sprintf("k%04d", i),
			Rate:     rate,
			Reconfig: uint64(rng.Intn(5000)),
		})
	}
	if gap != nil {
		scale := new(big.Rat).Sub(big.NewRat(1, 1), gap)
		scale.Quo(scale, s.Utilization())
		for i := range s.Streams {
			s.Streams[i].Rate.Mul(s.Streams[i].Rate, scale)
		}
	}
	return s
}

// solveKernel runs the kernel and checks that its answer is an exact fixed
// point of its own operator.
func solveKernel(t *testing.T, s *System, gran []int64) []int64 {
	t.Helper()
	res, err := s.SolveBlockSizes(nil, gran)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	f, err := s.BlockOperator(res.Blocks, gran)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if f[i] != res.Blocks[i] {
			t.Fatalf("stream %d: η = %d but F(η) = %d", i, res.Blocks[i], f[i])
		}
	}
	return res.Blocks
}

// TestKernelMetamorphic checks three relations the least fixed point must
// obey, on plain and decimation-8 problems from n = 1 to n = 1000 and up to
// utilisation 1 − 10⁻⁷:
//
//   - permuting the streams permutes η;
//   - adding a stream never lowers another stream's η;
//   - scaling every μ down never raises any η.
func TestKernelMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gaps := []*big.Rat{nil, big.NewRat(1, 1000), big.NewRat(1, 1_000_000), big.NewRat(1, 10_000_000)}
	for _, n := range []int{1, 2, 3, 7, 1000} {
		for gi, gap := range gaps {
			for _, decim := range []int64{1, 8} {
				name := fmt.Sprintf("n%d_gap%d_decim%d", n, gi, decim)
				t.Run(name, func(t *testing.T) {
					s := kernelSystem(rng, n, gap)
					gran := make([]int64, n)
					for i := range gran {
						gran[i] = decim
					}
					base := solveKernel(t, s, gran)

					// Permutation.
					perm := rng.Perm(n)
					p := s.Clone()
					for i, j := range perm {
						p.Streams[i] = s.Streams[j]
					}
					permuted := solveKernel(t, p, gran)
					for i, j := range perm {
						if permuted[i] != base[j] {
							t.Fatalf("permuted stream %d (was %d): η = %d, want %d", i, j, permuted[i], base[j])
						}
					}

					// Addition: a newcomer taking half the remaining headroom.
					grown := s.Clone()
					head := new(big.Rat).Sub(big.NewRat(1, 1), s.Utilization())
					rate := head.Mul(head, big.NewRat(s.ClockHz, 2*int64(s.Chain.C0())))
					grown.Streams = append(grown.Streams, Stream{Name: "new", Rate: rate, Reconfig: 100})
					more := solveKernel(t, grown, append(append([]int64(nil), gran...), decim))
					for i := range base {
						if more[i] < base[i] {
							t.Fatalf("stream %d: η fell from %d to %d when a stream was added", i, base[i], more[i])
						}
					}

					// Scaling every μ down.
					slow := s.Clone()
					f := big.NewRat(int64(50+rng.Intn(50)), 100)
					for i := range slow.Streams {
						slow.Streams[i].Rate = new(big.Rat).Mul(s.Streams[i].Rate, f)
					}
					less := solveKernel(t, slow, gran)
					for i := range base {
						if less[i] > base[i] {
							t.Fatalf("stream %d: η rose from %d to %d when every μ shrank by %s", i, base[i], less[i], f.RatString())
						}
					}
				})
			}
		}
	}
}
