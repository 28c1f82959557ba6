// Package admission is the online control plane for a running platform:
// it admits, removes and readmits streams without violating the survivors'
// Eq. 2 (τ̂s) and Eq. 4 (γ̂s) bounds.
//
// The paper sizes block sizes ηs once, offline, with Algorithm 1 for a
// fixed stream set. A service under live traffic changes the set while
// blocks are flowing, so every request here runs the same analysis
// incrementally — the exact Algorithm 1 kernel, warm-started from the
// committed assignment after additions — and, only when the new
// configuration is provably feasible, applies it as a staged mode
// transition:
//
//  1. drain: arbitration pauses at the next block boundary
//     (gateway.RequestPause), so the pipeline is provably idle;
//  2. reconfigure: stream slots are reprogrammed over the configuration
//     bus in one validated transaction (gateway.ApplySlots), optionally
//     attaching a brand-new stream to a reserved ring slot
//     (mpsoc.AttachStream);
//  3. resume: arbitration restarts under the new ηs.
//
// The transition cost is itself bounded — the drain waits at most one
// in-flight block turnaround max τ̂s plus the bus transaction — and both
// the bound and the measured cost are recorded in the decision's Verdict.
// On a checkpointing chain (gateway.Recovery.Checkpoint = K) that in-flight
// block additionally pays the interior quiesce/save overhead, so the guard
// uses the adjusted Eq. 2 term τ̂s(K) = Rs + (ηs + 2·⌈ηs/K⌉)·c0 +
// (⌈ηs/K⌉−1)·Csave (core.TauHatCheckpointed). K and Csave, like every
// stream's decimation, are read from the controlled chain itself
// (mpsoc.ChainSpec.Checkpointing, StreamSpec.Decimation), never copied.
//
// Readmission of a quarantined stream is probational: the stream re-enters
// arbitration with a canary block; one clean completion clears probation,
// one stall re-quarantines immediately (no retry budget) and the
// controller rolls the survivors back to their previous configuration.
//
// Every decision lands in an append-only event log with deterministic
// rendering, so a scripted campaign (cmd/accelshare admit) is
// byte-identical across runs.
package admission

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"

	"accelshare/internal/accel"
	"accelshare/internal/core"
	"accelshare/internal/gateway"
	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
	"accelshare/internal/solve"
)

// Reason is a machine-readable verdict category.
type Reason string

// Verdict reasons.
const (
	// ReasonAdmitted marks an accepted request.
	ReasonAdmitted Reason = "admitted"
	// ReasonInfeasible: Algorithm 1 has no solution (utilisation ≥ 1).
	ReasonInfeasible Reason = "infeasible"
	// ReasonBufferBound: the new configuration is feasible in time but a
	// stream's C-FIFO, fixed at build time, is smaller than the buffer
	// bound the new ηs requires.
	ReasonBufferBound Reason = "buffer-bound"
	// ReasonSolverBudget: the solver's round cap ran out before the fixed
	// point. The request may well be feasible; the control plane refused to
	// stall proving it.
	ReasonSolverBudget Reason = "solver-budget"
	// ReasonNoSlot: no reserved ring slot is left for a new stream.
	ReasonNoSlot Reason = "no-reserved-slot"
	// ReasonUnknownStream: the named stream is not under control.
	ReasonUnknownStream Reason = "unknown-stream"
	// ReasonNotQuarantined: readmission of a stream that is not quarantined.
	ReasonNotQuarantined Reason = "not-quarantined"
	// ReasonBusy: another mode transition is still in flight.
	ReasonBusy Reason = "busy"
	// ReasonSuperseded: the stream set changed while the transition was
	// draining (a fault quarantine landed mid-drain), so the decision's
	// solved blocks and slot map are stale. The transition aborts before
	// touching the platform; re-issue the request against the new model.
	ReasonSuperseded Reason = "superseded"
	// ReasonBadRequest: malformed request parameters.
	ReasonBadRequest Reason = "bad-request"
)

// BlockAssignment is one stream's ηs in a verdict (a slice, not a map, so
// rendering order is deterministic).
type BlockAssignment struct {
	Name  string
	Block int64
}

// Verdict is the outcome of one admission request.
type Verdict struct {
	Accepted bool
	Reason   Reason
	// Detail names the violated constraint or failed step for rejections.
	Detail string
	// Blocks is the applied assignment (accepted requests only).
	Blocks []BlockAssignment
	// SolverPath records which solve.Solver decision procedure produced
	// the assignment; SolveRounds is its round count.
	SolverPath  solve.Path
	SolveRounds int
	// BoundCycles bounds the transition: max τ̂s over the outgoing
	// configuration (the drain can wait for one in-flight block, retries
	// included in the Rs + (η+2)c0 envelope) plus the configuration-bus
	// transaction. PauseWait and BusCycles are the measured parts;
	// PauseWait + BusCycles ≤ BoundCycles on every accepted request.
	BoundCycles uint64
	PauseWait   sim.Time
	BusCycles   uint64
}

// EventKind tags one event-log entry.
type EventKind string

// Event kinds.
const (
	EvAdd        EventKind = "add"
	EvRemove     EventKind = "remove"
	EvReadmit    EventKind = "readmit"
	EvQuarantine EventKind = "quarantine"
	EvCanaryPass EventKind = "canary-pass"
	EvCanaryFail EventKind = "canary-fail"
	EvRollback   EventKind = "rollback"
	// EvRollbackFail records a canary rollback the controller could not
	// apply. The survivors keep the readmission assignment, which was
	// proved feasible for the larger set and so still holds for them.
	EvRollbackFail EventKind = "rollback-failed"
	// EvRetarget records the controller re-attaching to the standby chain
	// after a failover migrated its streams there.
	EvRetarget EventKind = "retarget"
	// EvMigrate records the adoption of a stream evacuated from another
	// chain (AdmitMigrated): an addition that imports exported gateway state
	// instead of attaching a fresh stream.
	EvMigrate EventKind = "migrate"
)

// Event is one event-log entry. Request kinds carry the Verdict; platform
// notifications (quarantine, canary outcomes) carry only the stream.
type Event struct {
	At      sim.Time
	Kind    EventKind
	Stream  string
	Verdict *Verdict
}

// AddRequest asks to admit a new stream.
type AddRequest struct {
	// Spec describes the platform-level stream; Spec.Block is ignored (the
	// controller computes ηs) and Spec.StartSuspended is forced (the new
	// slot activates atomically with the survivors' new sizes).
	Spec mpsoc.StreamSpec
	// Rate is the throughput constraint μs in samples per second.
	Rate *big.Rat
}

// Config parameterises a Controller.
type Config struct {
	// Chain selects the controlled chain of the MultiSystem.
	Chain int
	// Model is the temporal model of the streams currently admitted, in
	// gateway-slot order; its Block fields must match the running
	// configuration. The controller owns the model from here on.
	Model *core.System
	// PerSlotCost is the configuration-bus cost per reprogrammed slot.
	PerSlotCost sim.Time
	// Solver is the Algorithm 1 decision procedure (nil = the production
	// stack: the solve.Incremental warm-start layer over solve.Exact).
	// The controller passes its committed assignment as Problem.Prev on
	// every re-solve, so warm-start soundness (additions reuse, removals
	// restart cold) is the solver stack's responsibility.
	Solver solve.Solver
	// Engines builds the per-accelerator engine set for a stream admitted
	// from a script (Play); direct AddStream callers supply engines in the
	// request spec instead.
	Engines func(name string) []accel.Engine
}

// Controller is the admission control plane for one chain.
type Controller struct {
	ms     *mpsoc.MultiSystem
	ci     int
	cfg    Config
	solver solve.Solver

	model *core.System
	// gwSlot[i] is the gateway slot of model stream i: the gateway's slot
	// table only grows, while the model tracks the live set.
	gwSlot []int
	decim  []int64

	// parked holds removed and quarantined streams eligible for Readmit.
	parked map[string]*parkedStream

	// pendingCanary is the in-flight readmission probe, if any.
	pendingCanary *canaryProbe

	// gen counts model mutations (transition commits, quarantines, canary
	// shrinkage). A transition snapshots gen at decision time; the platform
	// can quarantine a stream while the pause is still draining, so the
	// pause callback compares gen against its snapshot and aborts its
	// stale plan instead of applying it over the mutated model.
	gen uint64

	busy   bool
	events []Event
}

type parkedStream struct {
	slot        int
	rate        *big.Rat
	reconfig    uint64
	decimation  int64
	quarantined bool
}

type canaryProbe struct {
	name string
	slot int
	// prev is the survivors' assignment before the readmission, for the
	// rollback transition after a failed canary.
	prev []BlockAssignment
}

// New attaches a controller to one chain of a running platform. The model
// must list the chain's current streams in slot order with their running
// block sizes; each stream's block granularity is its spec's decimation.
func New(ms *mpsoc.MultiSystem, cfg Config) (*Controller, error) {
	if cfg.Chain < 0 || cfg.Chain >= len(ms.Chains) {
		return nil, fmt.Errorf("admission: chain %d out of range", cfg.Chain)
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("admission: nil model")
	}
	ch := ms.Chains[cfg.Chain]
	if len(cfg.Model.Streams) != len(ch.Strs) {
		return nil, fmt.Errorf("admission: model has %d streams, chain has %d",
			len(cfg.Model.Streams), len(ch.Strs))
	}
	decim := make([]int64, len(ch.Strs))
	for i, st := range ch.Strs {
		decim[i] = max(st.Spec.Decimation, 1)
	}
	for i := range cfg.Model.Streams {
		if cfg.Model.Streams[i].Block != ch.Strs[i].GW.Block {
			return nil, fmt.Errorf("admission: model stream %q block %d != running %d",
				cfg.Model.Streams[i].Name, cfg.Model.Streams[i].Block, ch.Strs[i].GW.Block)
		}
	}
	solver := cfg.Solver
	if solver == nil {
		solver = &solve.Incremental{Inner: &solve.Exact{}}
	}
	c := &Controller{
		ms: ms, ci: cfg.Chain, cfg: cfg, solver: solver,
		model:  cfg.Model,
		decim:  decim,
		parked: map[string]*parkedStream{},
	}
	for i := range cfg.Model.Streams {
		c.gwSlot = append(c.gwSlot, i)
	}
	ch.Pair.SetQuarantineObserver(c.onQuarantine)
	ch.Pair.SetCanaryHook(c.onCanary)
	return c, nil
}

// Events returns the decision log (append-only; do not mutate).
func (c *Controller) Events() []Event { return c.events }

// Model returns the controller's live temporal model (read-only).
func (c *Controller) Model() *core.System { return c.model }

// Busy reports whether a staged transition or canary probe is in flight:
// the rebalancer skips a tick rather than queue moves behind a drain whose
// outcome may invalidate the plan.
func (c *Controller) Busy() bool { return c.busy || c.pendingCanary != nil }

// Utilization returns the live model's exact utilisation Σ μs·ρ (a defensive
// copy: callers compare and aggregate fleet-wide, the model keeps its own).
func (c *Controller) Utilization() *big.Rat {
	return new(big.Rat).Set(c.model.Utilization())
}

// UtilizationSnapshot is one controller's load picture at an instant — the
// admission half of the fleet telemetry the rebalancer aggregates (buffer
// occupancy comes from cfifo.BufferStats, queue depth from the cluster
// registry).
type UtilizationSnapshot struct {
	// Utilization is Σ μs·ρ over the live streams, exact.
	Utilization *big.Rat
	// Streams counts the live (model) streams; Parked counts removed or
	// quarantined streams whose slot is still recoverable via Readmit.
	Streams, Parked int
	// Busy mirrors Busy(): the snapshot was taken mid-transition, so the
	// model may be about to change.
	Busy bool
}

// Snapshot captures the controller's current load (see UtilizationSnapshot).
func (c *Controller) Snapshot() UtilizationSnapshot {
	return UtilizationSnapshot{
		Utilization: c.Utilization(),
		Streams:     len(c.model.Streams),
		Parked:      len(c.parked),
		Busy:        c.Busy(),
	}
}

// ForgetParked drops a parked stream from the controller's books and returns
// its gateway slot: the rebalancer's hand-off primitive. RemoveStream parks
// the victim so its name and slot stay recoverable via Readmit — but a
// rebalanced stream is not coming back: it is released from the gateway
// (tombstoned slot) and re-admitted on another chain, and a stale parked
// entry would wedge a later failover's Retarget (every parked name must
// exist on the standby). Returns false when no such parked stream exists.
func (c *Controller) ForgetParked(name string) (int, bool) {
	p := c.parked[name]
	if p == nil {
		return 0, false
	}
	delete(c.parked, name)
	return p.slot, true
}

func (c *Controller) chain() *mpsoc.Chain { return c.ms.Chains[c.ci] }

func (c *Controller) now() sim.Time { return c.ms.K.Now() }

func (c *Controller) record(kind EventKind, stream string, v *Verdict) {
	c.events = append(c.events, Event{At: c.now(), Kind: kind, Stream: stream, Verdict: v})
}

func (c *Controller) reject(kind EventKind, stream string, reason Reason, detail string, done func(Verdict)) {
	v := Verdict{Accepted: false, Reason: reason, Detail: detail}
	c.record(kind, stream, &v)
	if done != nil {
		done(v)
	}
}

// modelIndex returns the model index of the named live stream, or -1.
func (c *Controller) modelIndex(name string) int {
	for i := range c.model.Streams {
		if c.model.Streams[i].Name == name {
			return i
		}
	}
	return -1
}

// assignment renders the model-ordered blocks as a verdict assignment.
func assignment(model *core.System, blocks []int64) []BlockAssignment {
	out := make([]BlockAssignment, len(blocks))
	for i := range blocks {
		out[i] = BlockAssignment{Name: model.Streams[i].Name, Block: blocks[i]}
	}
	return out
}

// solve runs the incremental Algorithm 1 over the candidate model through
// the configured solve.Solver. The previously committed assignment rides
// along as Problem.Prev; the solver stack's warm-start layer decides
// whether it is a sound seed (the candidate only adds streams) or whether
// the iteration must restart cold (a committed stream is gone, so the
// least fixed point shrank). Rejections keep their error identities:
// core.ErrInfeasible and core.ErrSolverBudget surface unchanged through the
// interface.
func (c *Controller) solve(model *core.System, granularity []int64) (*solve.Result, error) {
	prev := make([]solve.Assignment, len(c.model.Streams))
	for i := range c.model.Streams {
		prev[i] = solve.Assignment{Name: c.model.Streams[i].Name, Block: c.model.Streams[i].Block}
	}
	return c.solver.Solve(&solve.Problem{Model: model, Granularity: granularity, Prev: prev})
}

// checkBuffers verifies every candidate stream's C-FIFOs against the
// bounds its new ηs implies: the input FIFO must hold one claimed block
// plus a worst-case service interval of arrivals (InputBufferBound), the
// output FIFO one output block in flight plus one draining
// (OutputBufferBound). caps[i] is the (in, out) capacity pair.
func checkBuffers(model *core.System, decim []int64, caps [][2]int) (string, error) {
	for i := range model.Streams {
		inB, err := model.InputBufferBound(i)
		if err != nil {
			return "", err
		}
		if int64(caps[i][0]) < inB {
			return fmt.Sprintf("stream %q input FIFO %d < bound %d",
				model.Streams[i].Name, caps[i][0], inB), nil
		}
		outB, err := model.OutputBufferBound(i, decim[i])
		if err != nil {
			return "", err
		}
		if int64(caps[i][1]) < outB {
			return fmt.Sprintf("stream %q output FIFO %d < bound %d",
				model.Streams[i].Name, caps[i][1], outB), nil
		}
	}
	return "", nil
}

// transitionBound is the drain-plus-bus envelope for one transition over
// the OUTGOING configuration: the pause can wait for one in-flight block
// of the slowest stream (τ̂s covers its reconfiguration, streaming and
// flush — the checkpoint-adjusted τ̂s(K) when the chain checkpoints, since
// that block also pays its interior quiesces), then the bus transaction
// reprograms `slots` slots. K and Csave are the controlled chain's own, so
// after a Retarget the bound follows the standby's settings.
func (c *Controller) transitionBound(slots int) uint64 {
	return c.model.MaxTauHatCheckpointed(c.chain().Spec.Checkpointing()) +
		uint64(c.cfg.PerSlotCost)*uint64(slots)
}

// rejectReason maps a solver error to a verdict reason.
func rejectReason(err error) (Reason, string) {
	switch {
	case errors.Is(err, core.ErrInfeasible):
		return ReasonInfeasible, err.Error()
	case errors.Is(err, core.ErrSolverBudget):
		return ReasonSolverBudget, err.Error()
	default:
		return ReasonBadRequest, err.Error()
	}
}

// ready rejects a request, busy, while a transition or a canary probe is in
// flight: a canary outcome may roll the model back to the assignment it
// captured at readmission time, and a request decided now would invalidate
// it. It reports whether the request may proceed.
func (c *Controller) ready(kind EventKind, name string, done func(Verdict)) bool {
	switch {
	case c.busy:
		c.reject(kind, name, ReasonBusy, "another transition is in flight", done)
	case c.pendingCanary != nil && kind == EvReadmit:
		c.reject(kind, name, ReasonBusy, "a canary probe is already in flight", done)
	case c.pendingCanary != nil:
		c.reject(kind, name, ReasonBusy, "a canary probe is in flight", done)
	default:
		return true
	}
	return false
}

// transition is the part of a staged mode transition that differs between
// its kinds; stage runs the protocol around it.
type transition struct {
	// kind is recorded on commit and, unless failKind is set, on rejection.
	kind, failKind EventKind
	stream         string
	v              Verdict
	done           func(Verdict)
	// apply runs at the block boundary once the stream set is known to be
	// unchanged: it attaches, imports or suspends and returns the slot
	// updates of the bus transaction. On error it must leave nothing behind.
	apply func() ([]gateway.SlotUpdate, error)
	// commit installs the new configuration once the platform runs it.
	commit func()
	// undo, if set, cleans up after a successful apply when the bus refuses
	// the updates, and returns a suffix for the rejection detail.
	undo func() string
}

// stage runs one staged mode transition: pause arbitration at the next
// block boundary; abort, superseded, if a quarantine changed the stream
// set during the drain (the decision's solved blocks and slot map are
// stale — and nothing has been attached or imported yet, so the caller can
// re-issue the request); apply and program the slots over the
// configuration bus; resume; commit. Every exit releases busy and lands in
// the event log.
func (c *Controller) stage(t *transition) {
	fail := func(reason Reason, detail string) {
		c.busy = false
		kind := t.kind
		if t.failKind != "" {
			kind = t.failKind
		}
		c.reject(kind, t.stream, reason, detail, t.done)
	}
	c.busy = true
	gen := c.gen
	requested := c.now()
	pair := c.chain().Pair
	err := pair.RequestPause(func() {
		if c.gen != gen {
			pair.Resume()
			fail(ReasonSuperseded, "stream set changed during drain")
			return
		}
		t.v.PauseWait = c.now() - requested
		updates, err := t.apply()
		if err != nil {
			pair.Resume()
			fail(ReasonBadRequest, err.Error())
			return
		}
		t.v.BusCycles = uint64(c.cfg.PerSlotCost) * uint64(len(updates))
		err = pair.ApplySlots(updates, c.cfg.PerSlotCost, func() {
			pair.Resume()
			t.commit()
			c.gen++
			c.busy = false
			// The log keeps its own copy: a pointer into t would retain the
			// transition's closures and candidate state for the log's life.
			v := t.v
			c.record(t.kind, t.stream, &v)
			if t.done != nil {
				t.done(v)
			}
		})
		if err != nil {
			detail := err.Error()
			if t.undo != nil {
				detail += t.undo()
			}
			pair.Resume()
			fail(ReasonBadRequest, detail)
		}
	})
	if err != nil {
		fail(ReasonBusy, err.Error())
	}
}

// growth is an accepted decision to grow the live set by one stream
// (AddStream, Readmit, AdmitMigrated): the candidate model at its new ηs,
// its granularities and the verdict.
type growth struct {
	model *core.System
	decim []int64
	v     Verdict
}

// grow decides whether the live set plus s is admissible. Adding a stream
// grows Algorithm 1's operator pointwise, so the running assignment (passed
// as Problem.Prev by solve) is below the new least fixed point and the
// solver stack warm-starts from it. A migrated stream floors its ηs at
// minBlock (see MigrateRequest.MinBlock). Every C-FIFO is then checked
// against the bounds the new ηs imply; caps is the new stream's (in, out)
// capacity pair. A rejection is recorded and grow returns nil.
func (c *Controller) grow(kind EventKind, s core.Stream, decimation, minBlock int64, caps [2]int, done func(Verdict)) *growth {
	cand := c.model.Clone()
	cand.Streams = append(cand.Streams, s)
	granularity := append(append([]int64(nil), c.decim...), decimation)
	res, err := c.solve(cand, granularity)
	if err != nil {
		reason, detail := rejectReason(err)
		c.reject(kind, s.Name, reason, detail, done)
		return nil
	}
	blocks := res.Blocks
	for i, b := range blocks {
		cand.Streams[i].Block = b
	}
	if last := len(blocks) - 1; blocks[last] < minBlock {
		// Growth above the least fixed point is not automatically feasible:
		// round the floor up to a decimation multiple and verify exactly.
		b := minBlock
		if rem := b % decimation; rem != 0 {
			b += decimation - rem
		}
		blocks = append([]int64(nil), blocks...)
		blocks[last] = b
		cand.Streams[last].Block = b
		if !solve.Verify(cand, granularity, blocks).Feasible {
			c.reject(kind, s.Name, ReasonInfeasible,
				fmt.Sprintf("replay residue floors eta at %d, infeasible alongside the survivors", b), done)
			return nil
		}
	}
	if detail, err := checkBuffers(cand, granularity, append(c.liveCaps(), caps)); err != nil {
		c.reject(kind, s.Name, ReasonBadRequest, err.Error(), done)
		return nil
	} else if detail != "" {
		c.reject(kind, s.Name, ReasonBufferBound, detail, done)
		return nil
	}
	return &growth{model: cand, decim: granularity, v: Verdict{
		Accepted:    true,
		Reason:      ReasonAdmitted,
		Blocks:      assignment(cand, blocks),
		SolverPath:  res.Path,
		SolveRounds: res.Rounds,
		BoundCycles: c.transitionBound(len(cand.Streams)),
	}}
}

// last returns the new stream's index in the candidate model.
func (g *growth) last() int { return len(g.model.Streams) - 1 }

// growthUpdates moves the survivors to the candidate's ηs and programs the
// new stream's slot with its own ηs plus the added activation flags.
func (c *Controller) growthUpdates(g *growth, added gateway.SlotUpdate) []gateway.SlotUpdate {
	blocks := blocksOf(g.model)
	added.SetBlock = blocks[g.last()]
	added.SetOutBlock = added.SetBlock / g.decim[g.last()]
	return append(slotUpdates(c.gwSlot, c.decim, blocks[:g.last()]), added)
}

// commitGrowth installs the candidate with the new stream at gateway slot.
func (c *Controller) commitGrowth(g *growth, slot int) {
	c.model = g.model
	c.decim = g.decim
	c.gwSlot = append(c.gwSlot, slot)
}

// parkGrown parks a growth's new stream that is already attached or
// imported when the bus refuses the updates, so its name and slot stay
// recoverable via Readmit instead of leaking an unaccounted slot. It
// returns the rejection's detail suffix.
func (c *Controller) parkGrown(g *growth, slot int) string {
	s := g.model.Streams[g.last()]
	c.parked[s.Name] = &parkedStream{
		slot:       slot,
		rate:       new(big.Rat).Set(s.Rate),
		reconfig:   s.Reconfig,
		decimation: g.decim[g.last()],
	}
	return "; stream parked, recover via readmit"
}

// AddStream requests admission of a new stream. The decision is made
// immediately; when accepted, the staged transition (drain, attach +
// reconfigure, resume) runs asynchronously and done fires with the final
// verdict once the platform is streaming under the new configuration.
// done fires immediately on rejection.
func (c *Controller) AddStream(req AddRequest, done func(Verdict)) {
	name := req.Spec.Name
	if !c.ready(EvAdd, name, done) {
		return
	}
	if req.Rate == nil || req.Rate.Sign() <= 0 {
		c.reject(EvAdd, name, ReasonBadRequest, "missing or non-positive rate", done)
		return
	}
	if c.modelIndex(name) >= 0 || c.parked[name] != nil {
		c.reject(EvAdd, name, ReasonBadRequest, "stream name already in use", done)
		return
	}
	if c.chain().ReservedSlots() == 0 {
		c.reject(EvAdd, name, ReasonNoSlot, "all reserved ring slots consumed", done)
		return
	}
	decimation := max(req.Spec.Decimation, 1)
	g := c.grow(EvAdd, core.Stream{
		Name:     name,
		Rate:     new(big.Rat).Set(req.Rate),
		Reconfig: uint64(req.Spec.Reconfig),
	}, decimation, 0, [2]int{req.Spec.InCapacity, req.Spec.OutCapacity}, done)
	if g == nil {
		return
	}
	spec := req.Spec
	spec.Block = g.model.Streams[g.last()].Block
	spec.Decimation = decimation
	spec.StartSuspended = true
	var slot int
	c.stage(&transition{
		kind: EvAdd, stream: name, v: g.v, done: done,
		apply: func() ([]gateway.SlotUpdate, error) {
			if _, err := c.ms.AttachStream(c.ci, spec); err != nil {
				return nil, err
			}
			slot = len(c.chain().Strs) - 1
			return c.growthUpdates(g, gateway.SlotUpdate{Stream: slot, Activate: true}), nil
		},
		commit: func() { c.commitGrowth(g, slot) },
		undo: func() string {
			// AttachStream consumed the reserved ring slot and started the
			// source; the slot stays suspended (StartSuspended is forced)
			// and the source stops, so no producing orphan is left behind.
			c.chain().Strs[slot].StopSource()
			return c.parkGrown(g, slot)
		},
	})
}

// liveCaps collects the (in, out) FIFO capacities of the live streams in
// model order.
func (c *Controller) liveCaps() [][2]int {
	ch := c.chain()
	caps := make([][2]int, len(c.model.Streams))
	for i, slot := range c.gwSlot {
		caps[i] = [2]int{ch.Strs[slot].In.Capacity(), ch.Strs[slot].Out.Capacity()}
	}
	return caps
}

// slotUpdates builds the SetBlock/SetOutBlock updates that move the streams
// at the given gateway slots, with the given decimations, to blocks.
func slotUpdates(slots []int, decim, blocks []int64) []gateway.SlotUpdate {
	ups := make([]gateway.SlotUpdate, 0, len(blocks)+1)
	for i, b := range blocks {
		ups = append(ups, gateway.SlotUpdate{
			Stream:      slots[i],
			SetBlock:    b,
			SetOutBlock: b / decim[i],
		})
	}
	return ups
}

// RemoveStream retires a live stream: its slot is suspended, its source
// stopped, and the survivors' blocks re-solved from scratch (removal
// shrinks the least fixed point, so the previous assignment is no longer
// minimal — and no longer a sound warm start). The stream is parked and
// can come back via Readmit.
func (c *Controller) RemoveStream(name string, done func(Verdict)) {
	if !c.ready(EvRemove, name, done) {
		return
	}
	idx := c.modelIndex(name)
	if idx < 0 {
		c.reject(EvRemove, name, ReasonUnknownStream, "stream is not live on this chain", done)
		return
	}
	if len(c.model.Streams) == 1 {
		c.reject(EvRemove, name, ReasonBadRequest, "cannot remove the last stream", done)
		return
	}
	slot := c.gwSlot[idx]
	cand := c.model.Clone()
	cand.Streams = slices.Delete(cand.Streams, idx, idx+1)
	granularity := slices.Delete(slices.Clone(c.decim), idx, idx+1)
	gwSlots := slices.Delete(slices.Clone(c.gwSlot), idx, idx+1)

	// The removed stream is still in Prev but absent from cand, so the
	// solver stack restarts cold — the shrunken least fixed point may lie
	// below every warm seed the old assignment could provide.
	res, err := c.solve(cand, granularity)
	if err != nil {
		reason, detail := rejectReason(err)
		c.reject(EvRemove, name, reason, detail, done)
		return
	}
	for i, b := range res.Blocks {
		cand.Streams[i].Block = b
	}
	parked := &parkedStream{
		slot:       slot,
		rate:       new(big.Rat).Set(c.model.Streams[idx].Rate),
		reconfig:   c.model.Streams[idx].Reconfig,
		decimation: c.decim[idx],
	}
	c.stage(&transition{
		kind: EvRemove, stream: name, done: done,
		v: Verdict{
			Accepted:    true,
			Reason:      ReasonAdmitted,
			Blocks:      assignment(cand, res.Blocks),
			SolverPath:  res.Path,
			SolveRounds: res.Rounds,
			BoundCycles: c.transitionBound(len(c.model.Streams)),
		},
		apply: func() ([]gateway.SlotUpdate, error) {
			return append(slotUpdates(gwSlots, granularity, res.Blocks),
				gateway.SlotUpdate{Stream: slot, Suspend: true}), nil
		},
		commit: func() {
			c.chain().Strs[slot].StopSource()
			c.model = cand
			c.decim = granularity
			c.gwSlot = gwSlots
			c.parked[name] = parked
		},
	})
}

// park moves live model stream i to the parked set as quarantined and
// shrinks the model. The survivors keep their ηs — with one stream gone
// every γ̂ only shrinks, so the running assignment stays feasible without a
// transition. The generation bump invalidates any plan still draining.
func (c *Controller) park(i int) {
	c.parked[c.model.Streams[i].Name] = &parkedStream{
		slot:        c.gwSlot[i],
		rate:        new(big.Rat).Set(c.model.Streams[i].Rate),
		reconfig:    c.model.Streams[i].Reconfig,
		decimation:  c.decim[i],
		quarantined: true,
	}
	c.model.Streams = append(c.model.Streams[:i], c.model.Streams[i+1:]...)
	c.decim = append(c.decim[:i], c.decim[i+1:]...)
	c.gwSlot = append(c.gwSlot[:i], c.gwSlot[i+1:]...)
	c.gen++
}

// onQuarantine is the gateway's quarantine observer: the platform removed
// the stream from arbitration on its own (fault recovery exhausted the
// retry budget), so the controller parks it and shrinks the model.
func (c *Controller) onQuarantine(slot int) {
	i := slices.Index(c.gwSlot, slot)
	if i < 0 {
		return
	}
	name := c.model.Streams[i].Name
	if c.pendingCanary != nil && c.pendingCanary.name == name {
		return // canary failure: onCanary handles the rollback
	}
	c.park(i)
	c.record(EvQuarantine, name, nil)
}

// Readmit probes a parked (quarantined or removed) stream back into
// service. The re-solve treats it as a new addition (warm start valid);
// the transition unquarantines the slot with Probation set, so the
// stream's first block is a canary: one clean completion confirms the
// readmission, one stall re-quarantines it immediately and the controller
// rolls the survivors back.
func (c *Controller) Readmit(name string, done func(Verdict)) {
	if !c.ready(EvReadmit, name, done) {
		return
	}
	p := c.parked[name]
	if p == nil {
		if c.modelIndex(name) >= 0 {
			c.reject(EvReadmit, name, ReasonNotQuarantined, "stream is live", done)
		} else {
			c.reject(EvReadmit, name, ReasonUnknownStream, "stream was never admitted", done)
		}
		return
	}
	ch := c.chain()
	g := c.grow(EvReadmit, core.Stream{
		Name:     name,
		Rate:     new(big.Rat).Set(p.rate),
		Reconfig: p.reconfig,
	}, p.decimation, 0, [2]int{ch.Strs[p.slot].In.Capacity(), ch.Strs[p.slot].Out.Capacity()}, done)
	if g == nil {
		return
	}
	prev := assignment(c.model, blocksOf(c.model))
	quarantined := p.quarantined
	c.stage(&transition{
		kind: EvReadmit, stream: name, v: g.v, done: done,
		apply: func() ([]gateway.SlotUpdate, error) {
			added := gateway.SlotUpdate{Stream: p.slot, Activate: true, Probation: true}
			if quarantined {
				added = gateway.SlotUpdate{Stream: p.slot, Unquarantine: true, Probation: true}
			}
			return c.growthUpdates(g, added), nil
		},
		commit: func() {
			if !quarantined {
				// A removed stream's source was stopped; restart it.
				c.ms.ResumeSource(c.ci, p.slot)
			}
			c.commitGrowth(g, p.slot)
			delete(c.parked, name)
			c.pendingCanary = &canaryProbe{name: name, slot: p.slot, prev: prev}
		},
	})
}

func blocksOf(model *core.System) []int64 {
	out := make([]int64, len(model.Streams))
	for i := range model.Streams {
		out[i] = model.Streams[i].Block
	}
	return out
}

// onCanary resolves a pending readmission probe: a clean canary confirms
// the new configuration; a stall means the gateway already re-quarantined
// the stream, and the controller parks it again and rolls the survivors
// back to their previous ηs with another staged transition.
func (c *Controller) onCanary(slot int, ok bool) {
	p := c.pendingCanary
	if p == nil || p.slot != slot {
		return
	}
	c.pendingCanary = nil
	if ok {
		c.record(EvCanaryPass, p.name, nil)
		return
	}
	c.record(EvCanaryFail, p.name, nil)
	idx := c.modelIndex(p.name)
	if idx < 0 {
		return
	}
	c.park(idx)
	// Roll the survivors back to the assignment that held before the
	// failed readmission (it was feasible then; with the probed stream
	// gone again it is feasible now). If the rollback cannot be applied,
	// the survivors keep the readmission ηs — feasible for the larger set,
	// hence still safe, just not minimal — and the dropped rollback is
	// recorded as a rollback-failed event rather than lost silently.
	if c.busy {
		// Unreachable while requests are gated on pendingCanary, but never
		// clobber another transition's busy gate.
		c.reject(EvRollbackFail, p.name, ReasonBusy, "another transition is in flight", nil)
		return
	}
	// Map prev onto the current model by name: a survivor can itself have
	// been quarantined while the canary was pending, so prev's length and
	// order need not match the model any more. Streams without a prev
	// entry keep their current (feasible-for-a-larger-set) block.
	blocks := blocksOf(c.model)
	for i := range c.model.Streams {
		for _, a := range p.prev {
			if a.Name == c.model.Streams[i].Name {
				blocks[i] = a.Block
				break
			}
		}
	}
	c.stage(&transition{
		kind: EvRollback, failKind: EvRollbackFail, stream: p.name,
		v: Verdict{
			Accepted:    true,
			Reason:      ReasonAdmitted,
			Blocks:      assignment(c.model, blocks),
			BoundCycles: c.transitionBound(len(blocks)),
		},
		apply: func() ([]gateway.SlotUpdate, error) {
			return slotUpdates(c.gwSlot, c.decim, blocks), nil
		},
		commit: func() {
			for i := range c.model.Streams {
				c.model.Streams[i].Block = blocks[i]
			}
		},
	})
}

// Retarget re-attaches the controller to another chain after a failover
// migrated its streams there. Slots are re-mapped BY NAME against the new
// pair's table (failover preserves order, but the controller should not
// depend on that), the model's block sizes refresh from the live table (the
// failover may have re-solved them), and the model's chain parameters become
// the target chain's (mpsoc.ChainSpec.CoreChain). A transition
// that was pending on the dead pair is aborted: its pause callback died
// with the pair, so the busy gate is released and the generation bump turns
// any still-scheduled completion into a no-op.
func (c *Controller) Retarget(chain int) error {
	if chain < 0 || chain >= len(c.ms.Chains) {
		return fmt.Errorf("admission: retarget chain %d out of range", chain)
	}
	if chain == c.ci {
		return fmt.Errorf("admission: already attached to chain %d", chain)
	}
	ch := c.ms.Chains[chain]
	if ch.Pair.Failed() {
		return fmt.Errorf("admission: retarget target chain %q has itself failed", ch.Spec.Name)
	}
	if c.busy && !c.chain().Pair.Failed() {
		return fmt.Errorf("admission: transition in flight on a live pair")
	}
	snaps := ch.Pair.Snapshot()
	slotByName := make(map[string]int, len(snaps))
	for i, sn := range snaps {
		slotByName[sn.Name] = i
	}
	// Validate every mapping before mutating anything.
	newSlots := make([]int, len(c.model.Streams))
	for i := range c.model.Streams {
		slot, ok := slotByName[c.model.Streams[i].Name]
		if !ok {
			return fmt.Errorf("admission: stream %q missing on chain %q", c.model.Streams[i].Name, ch.Spec.Name)
		}
		newSlots[i] = slot
	}
	// Sorted iteration: with several parked streams missing, which one the
	// error names must not depend on map order (the message reaches the
	// campaign's deterministic output).
	parkedNames := make([]string, 0, len(c.parked))
	for name := range c.parked {
		parkedNames = append(parkedNames, name)
	}
	sort.Strings(parkedNames)
	for _, name := range parkedNames {
		if _, ok := slotByName[name]; !ok {
			return fmt.Errorf("admission: parked stream %q missing on chain %q", name, ch.Spec.Name)
		}
	}
	for i := range c.model.Streams {
		c.model.Streams[i].Block = snaps[newSlots[i]].Block
	}
	for _, name := range parkedNames {
		c.parked[name].slot = slotByName[name]
	}
	c.model.Chain = ch.Spec.CoreChain()
	c.gwSlot = newSlots
	c.ci = chain
	c.pendingCanary = nil // a probe cannot survive its pair
	c.busy = false
	c.gen++
	ch.Pair.SetQuarantineObserver(c.onQuarantine)
	ch.Pair.SetCanaryHook(c.onCanary)
	c.record(EvRetarget, ch.Spec.Name, nil)
	return nil
}
