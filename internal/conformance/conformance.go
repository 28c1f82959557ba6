// Package conformance is a reusable bound-conformance harness: given a
// temporal model (Eq. 2/Eq. 4 per-stream bounds) and a recorded block trace,
// it checks that every completed block's service latency stayed within τ̂s,
// every turnaround within γ̂s, and every stream's long-run delivery rate at
// or above its throughput floor μs (Eq. 5). Fault, admission and failover
// tests all consume it, so "the bounds held" means the same thing in every
// test — and a violation reports the exact block and cycle counts.
//
// The harness deliberately has no opinion about WHICH blocks to check: the
// caller scopes the trace (Options.After cuts convergence transients, e.g.
// everything before a quarantine or failover settled) and decides whether
// retried blocks may exceed τ̂s (Options.SkipRetried — a retry legitimately
// pays the flush + replay on top of the clean-run bound, or, sharper,
// Options.RetrySlack widens τ̂s by a per-retry allowance derived from
// detection latency plus core.ResumeBound instead of exempting the block).
//
// For checkpointed recovery the harness also checks the replay-cost claim
// itself: FromModelCheckpointed derives bounds from the adjusted Eq. 2 term
// τ̂s(K) (core.TauHatCheckpointed), and Options.ReplayBound asserts that
// every block's measured replay work (gateway.BlockRecord.Replayed) stayed
// within retries·K — a retry resumed from the last checkpoint, never from
// block start.
package conformance

import (
	"fmt"
	"math/big"
	"strings"

	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/sim"
)

// StreamBounds is one stream's derived bounds, pre-computed so a test can
// also tighten or relax individual streams before checking.
type StreamBounds struct {
	Name string
	// TauHat is τ̂s (Eq. 2): worst-case service latency of one block.
	TauHat uint64
	// GammaHat is γ̂s (Eq. 4): worst-case queued→done turnaround.
	GammaHat uint64
	// Rate is μs in samples per CYCLE (the throughput floor, Eq. 5).
	Rate *big.Rat
	// Block is ηs, the samples delivered per completed block.
	Block int64
}

// FromModel derives every stream's bounds from the temporal model. Block
// sizes must be solved (TauHat errors otherwise).
func FromModel(s *core.System) ([]StreamBounds, error) {
	return FromModelCheckpointed(s, 0, 0)
}

// FromModelCheckpointed derives every stream's bounds under a checkpoint
// interval of k input samples and a per-checkpoint snapshot cost: TauHat
// becomes the adjusted Eq. 2 term τ̂s(k) (core.TauHatCheckpointed) and
// GammaHat the matching Eq. 4 sum — checkpoint quiesces stretch every
// stream's block, so the round-robin interference term grows with them.
// k ≤ 0 is the plain FromModel. k must already be rounded to each stream's
// decimation (the gateway rounds up, so pass the rounded value).
func FromModelCheckpointed(s *core.System, k int64, saveCost uint64) ([]StreamBounds, error) {
	taus := make([]uint64, len(s.Streams))
	var sum uint64
	for i := range s.Streams {
		tau, err := s.TauHatCheckpointed(i, k, saveCost)
		if err != nil {
			return nil, err
		}
		taus[i] = tau
		sum += tau
	}
	out := make([]StreamBounds, len(s.Streams))
	for i := range s.Streams {
		out[i] = StreamBounds{
			Name:     s.Streams[i].Name,
			TauHat:   taus[i],
			GammaHat: sum, // ε̂s + τ̂s = Σ over all streams (Eq. 3 + Eq. 4)
			Rate:     s.RatePerCycle(i),
			Block:    s.Streams[i].Block,
		}
	}
	return out, nil
}

// Options scopes a conformance check.
type Options struct {
	// After drops blocks completed at or before this instant — convergence
	// transients (a quarantine mid-drain, a failover replay) are the
	// caller's to cut, not the harness's to guess.
	After sim.Time
	// FilterQueued scopes on Queued instead of Done: a block queued before
	// the cut may legitimately span a mode transition (its turnaround is
	// covered by the transition-cost bound, not by the new γ̂s), while a
	// block queued after it must meet the new bounds in full.
	FilterQueued bool
	// SkipRetried exempts blocks that needed recovery retries from the τ̂s
	// check (a retry pays flush + replay on top of the clean-service bound;
	// γ̂s and throughput are still enforced).
	SkipRetried bool
	// MinBlocks fails a stream with fewer than this many in-scope blocks —
	// an empty trace trivially "conforms", which is never what a test means.
	MinBlocks int
	// SkipGamma / SkipThroughput disable individual checks, e.g. while a
	// stream's γ̂ is transiently stale across an admission transition.
	SkipGamma      bool
	SkipThroughput bool
	// ReplayBound, when positive, checks every block's measured replay work:
	// the input words re-issued beyond the first pass (BlockRecord.Replayed)
	// must not exceed Retries × ReplayBound. With checkpointing every K
	// samples the bound is K — a retry resumes from the last checkpoint,
	// never further back — where full-block replay would cost up to ηs per
	// retry. This is the measured side of the adjusted Eq. 2 argument:
	// replay work ≤ K, so one resume costs at most core.ResumeBound.
	ReplayBound int64
	// RetrySlack, when positive, replaces SkipRetried's blanket exemption
	// for the τ̂s check: a retried block's service latency is checked against
	// TauHat + Retries × RetrySlack instead of being skipped. Callers derive
	// the slack from the adjusted Eq. 2 term: one detect-flush-resume cycle
	// costs at most the watchdog window (detection) + the flush settle +
	// core.ResumeBound (reload and ≤ K + 2 samples of replay).
	RetrySlack uint64
}

// Violation is one bound breach.
type Violation struct {
	Stream string
	// Kind is "tau", "gamma", "throughput", "replay" or "coverage".
	Kind string
	// Block indexes the offending record within the stream's in-scope trace
	// (-1 for stream-level violations).
	Block  int
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s[%s block %d]: %s", v.Stream, v.Kind, v.Block, v.Detail)
}

// Result is the outcome of a Check.
type Result struct {
	Violations []Violation
	// Checked counts in-scope block records across all streams.
	Checked int
}

// Err renders the violations as one error (nil when conformant).
func (r Result) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d bound violations:", len(r.Violations))
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}

// Check verifies records[i] (stream i's completed-block trace, as recorded
// in gateway.Stream.Turnarounds) against bounds[i]:
//
//	service latency  Done−Started ≤ τ̂s   per block (Eq. 2)
//	turnaround       Done−Queued  ≤ γ̂s   per block (Eq. 4)
//	throughput       delivery rate ≥ μs  long-run  (Eq. 5)
//
// The throughput check needs at least two in-scope blocks; it credits
// (n−1)·ηs samples over the span between the first and last completion and
// allows one γ̂s of boundary slack — a finite window cannot resolve rates
// finer than one block period, and the model only promises ηs per γ̂s:
//
//	(n−1)·ηs ≥ μs·(span − γ̂s)
//
// computed exactly in big.Rat (no float drift).
func Check(bounds []StreamBounds, records [][]gateway.BlockRecord, opt Options) Result {
	var res Result
	for i, sb := range bounds {
		var recs []gateway.BlockRecord
		if i < len(records) {
			for _, r := range records[i] {
				cut := r.Done
				if opt.FilterQueued {
					cut = r.Queued
				}
				if cut > opt.After {
					recs = append(recs, r)
				}
			}
		}
		if len(recs) < opt.MinBlocks {
			res.Violations = append(res.Violations, Violation{
				Stream: sb.Name, Kind: "coverage", Block: -1,
				Detail: fmt.Sprintf("only %d in-scope blocks, want >= %d", len(recs), opt.MinBlocks),
			})
			continue
		}
		res.Checked += len(recs)
		for bi, r := range recs {
			tauLimit, checkTau := sb.TauHat, true
			if r.Retries > 0 {
				switch {
				case opt.RetrySlack > 0:
					tauLimit += uint64(r.Retries) * opt.RetrySlack
				case opt.SkipRetried:
					checkTau = false
				}
			}
			if checkTau {
				if lat := uint64(r.Done - r.Started); lat > tauLimit {
					res.Violations = append(res.Violations, Violation{
						Stream: sb.Name, Kind: "tau", Block: bi,
						Detail: fmt.Sprintf("service latency %d > tau-hat %d (retries %d)", lat, tauLimit, r.Retries),
					})
				}
			}
			if opt.ReplayBound > 0 && r.Replayed > int64(r.Retries)*opt.ReplayBound {
				res.Violations = append(res.Violations, Violation{
					Stream: sb.Name, Kind: "replay", Block: bi,
					Detail: fmt.Sprintf("replayed %d words over %d retries > bound %d per retry",
						r.Replayed, r.Retries, opt.ReplayBound),
				})
			}
			if !opt.SkipGamma {
				if turn := uint64(r.Done - r.Queued); turn > sb.GammaHat {
					res.Violations = append(res.Violations, Violation{
						Stream: sb.Name, Kind: "gamma", Block: bi,
						Detail: fmt.Sprintf("turnaround %d > gamma-hat %d", turn, sb.GammaHat),
					})
				}
			}
		}
		if !opt.SkipThroughput && sb.Rate != nil && len(recs) >= 2 {
			span := uint64(recs[len(recs)-1].Done - recs[0].Done)
			if span > sb.GammaHat {
				delivered := new(big.Rat).SetInt64(int64(len(recs)-1) * sb.Block)
				window := new(big.Rat).SetUint64(span - sb.GammaHat)
				need := new(big.Rat).Mul(sb.Rate, window)
				if delivered.Cmp(need) < 0 {
					res.Violations = append(res.Violations, Violation{
						Stream: sb.Name, Kind: "throughput", Block: -1,
						Detail: fmt.Sprintf("delivered %d blocks x %d over %d cycles, below rate floor %s/cycle (slack gamma-hat %d)",
							len(recs)-1, sb.Block, span, sb.Rate.RatString(), sb.GammaHat),
					})
				}
			}
		}
	}
	return res
}

// FromStreams aligns gateway streams to bounds BY NAME and checks their
// recorded turnaround traces — the convenient form for platform tests where
// slot order may have changed across admission or failover transitions.
// Streams without matching bounds are ignored; bounds without a matching
// stream get an empty trace (so MinBlocks catches the gap).
func FromStreams(bounds []StreamBounds, streams []*gateway.Stream, opt Options) Result {
	byName := make(map[string][]gateway.BlockRecord, len(streams))
	for _, s := range streams {
		byName[s.Name] = s.Turnarounds
	}
	records := make([][]gateway.BlockRecord, len(bounds))
	for i, sb := range bounds {
		records[i] = byName[sb.Name]
	}
	return Check(bounds, records, opt)
}
