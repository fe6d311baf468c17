package vm

// Lockstep batched trial execution. A fault campaign's checkpoint bin is a
// set of trials that all restore the same snapshot and are bit-identical to
// the golden instruction stream until their own fault triggers. Executing
// them one at a time re-decodes and re-executes that shared prefix once per
// trial; a literal SIMT batch (N register files advanced under one decode)
// would compute N copies of the *same* values, because the only divergence
// events before a trial's trigger are the triggers themselves. The optimal
// lockstep schedule therefore degenerates — profitably — to a single
// *carrier* machine:
//
//   - the carrier restores the bin snapshot (or resets, for the scratch
//     bin) and advances under one issue cursor, one linst decode;
//   - each trial occupies a lane slot holding only its divergence point
//     (the first dyn index at which its state can differ from golden);
//   - lanes are peeled in ascending divergence order: the carrier suspends
//     at the lane's peel point (the engine's unified event threshold makes
//     this free when idle) and its suspended state is cloned into the
//     trial's solo machine with Machine.RestoreFrom — one memory copy, the
//     same cost the solo path pays for its per-trial snapshot Restore;
//   - the peeled machine runs the divergent suffix on the unmodified solo
//     engine, so every Result field is produced by exactly the code path
//     the equivalence suites already pin down.
//
// Bit-identity argument: the suspend point uses the same eligibility
// condition as register-fault injection (first non-phi instruction whose
// pre-increment dyn reaches the requested index — see snapshot.go), a
// pending fault has zero architectural effect before its trigger, and
// RestoreFrom writes exactly the field set Snapshot/Restore round-trips.
// A peeled trial is therefore in the bit-identical machine state the solo
// path reaches by Restore(binSnapshot) + run-to-trigger, and its suffix is
// executed by the identical engine. Lanes that share a divergence point
// share one carrier suspension; a lane may be re-peeled (the campaign's
// timeout retry) because peeling never consumes carrier state.

import (
	"errors"
	"fmt"
)

// ErrBatchStopped reports that the carrier's Stop channel was closed while
// advancing the shared prefix (context cancellation mid-batch). The batch
// holds no usable state afterwards; Reset re-arms it.
var ErrBatchStopped = errors.New("vm: lockstep carrier stopped")

// BatchOptions configures the carrier run. The carrier executes golden
// prefix only, so it takes the campaign's DisabledChecks (exactly what the
// instrumented snapshot run uses) and a Stop channel for cancellation; it
// needs no fault plan, tracer, or deadline — its advance is bounded by the
// machine's dynamic-instruction watchdog.
type BatchOptions struct {
	// DisabledChecks must match the set every trial in the bin runs with;
	// disabled checks leave no trace in any counter, so the carrier state
	// stays bit-identical to a solo trial's prefix.
	DisabledChecks map[int]bool
	// Stop, when non-nil, aborts a carrier advance once closed; Peel then
	// returns ErrBatchStopped.
	Stop <-chan struct{}
	// Fuse selects the carrier's superinstruction dispatch mode (fuse.go).
	// Fused and unfused advances are bit-identical, so this is a pure
	// throughput knob; it should match the trials' mode for symmetry only.
	Fuse FuseMode
}

// BatchMachine executes one checkpoint bin of fault-campaign trials in
// lockstep: a carrier machine advances the shared golden prefix once, and
// each trial lane peels off into a solo machine at its divergence point.
// Not safe for concurrent use; the campaign gives each worker its own.
type BatchMachine struct {
	carrier *Machine
	opts    BatchOptions

	base *Snapshot // bin snapshot; nil for the scratch bin (prefix from dyn 0)

	// Lane state, struct-of-arrays: slot i belongs to the i-th AddLane call.
	peelDyn []int64 // divergence point per lane (first dyn the lane's state may differ)
	peeled  []bool  // lane has been cloned out at least once

	at   int64 // carrier position: the last requested suspend index
	live bool  // carrier holds state for this bin (restored or reset)
}

// NewBatch wraps carrier — a machine bound to the campaign target, owned
// exclusively by the batch from here on — as a lockstep carrier. Snapshots
// and suspension are fast-engine features, so batching is too.
func NewBatch(carrier *Machine, opts BatchOptions) (*BatchMachine, error) {
	if carrier.eng == nil {
		return nil, fmt.Errorf("vm: lockstep batching requires the fast engine")
	}
	return &BatchMachine{carrier: carrier, opts: opts}, nil
}

// Reset rebinds the batch to one checkpoint bin: every lane restores from
// base (nil for the scratch bin, which replays the prefix from dyn 0).
// Existing lanes are discarded; the carrier is re-armed lazily on the first
// Peel, so resetting an exhausted batch costs nothing.
func (b *BatchMachine) Reset(base *Snapshot) {
	b.base = base
	b.peelDyn = b.peelDyn[:0]
	b.peeled = b.peeled[:0]
	b.at = 0
	b.live = false
}

// Base returns the bin snapshot the batch was Reset to (nil for scratch).
func (b *BatchMachine) Base() *Snapshot { return b.base }

// Lanes returns the number of registered lanes.
func (b *BatchMachine) Lanes() int { return len(b.peelDyn) }

// Remaining counts lanes not yet peeled.
func (b *BatchMachine) Remaining() int {
	n := 0
	for _, p := range b.peeled {
		if !p {
			n++
		}
	}
	return n
}

// AddLane registers one trial lane diverging at peelDyn and returns its
// lane index. Lanes may be registered in any order; Peel consumes them in
// nondecreasing peelDyn order.
func (b *BatchMachine) AddLane(peelDyn int64) int {
	b.peelDyn = append(b.peelDyn, peelDyn)
	b.peeled = append(b.peeled, false)
	return len(b.peelDyn) - 1
}

// Peel advances the carrier to the lane's divergence point and clones the
// suspended state into `into`, which is left suspended there: its next Run
// executes the lane's divergent suffix on the solo engine. Peels must come
// in nondecreasing peelDyn order (the carrier only moves forward); lanes
// sharing a peelDyn share one carrier suspension, and re-peeling the lane
// at the carrier's current position is allowed — peeling copies, it never
// consumes.
//
// A lane of the scratch bin with peelDyn <= 0 diverges at or before the
// first instruction: it peels "at origin" via into.Reset(), the exact state
// a from-scratch solo trial starts in, without touching the carrier.
func (b *BatchMachine) Peel(lane int, into *Machine) error {
	if lane < 0 || lane >= len(b.peelDyn) {
		return fmt.Errorf("vm: batch has no lane %d", lane)
	}
	if into == b.carrier {
		return fmt.Errorf("vm: cannot peel a lane into the carrier")
	}
	d := b.peelDyn[lane]
	if b.base == nil && d <= 0 {
		into.Reset()
		b.peeled[lane] = true
		return nil
	}
	if b.base != nil && d < b.base.Dyn() {
		return fmt.Errorf("vm: lane %d diverges at dyn %d, before its bin snapshot at dyn %d",
			lane, d, b.base.Dyn())
	}
	if b.live && d < b.at {
		return fmt.Errorf("vm: lockstep peel order violated: lane %d at dyn %d behind carrier at dyn %d",
			lane, d, b.at)
	}
	if !b.live {
		if b.base != nil {
			if err := b.carrier.Restore(b.base); err != nil {
				return err
			}
			b.at = b.base.Dyn()
		} else {
			b.carrier.Reset()
			b.at = 0
		}
		b.live = true
	}
	// Advance only when the lane's divergence point lies ahead of the
	// carrier's suspension. A restored carrier is already suspended at the
	// snapshot index; a reset one holds no suspension and must run even for
	// d == 0 (impossible here: scratch lanes with d <= 0 peeled at origin
	// above, so d >= 1 > b.at when the chain is empty).
	if d > b.at || len(b.carrier.susp) == 0 {
		res := b.carrier.Run(RunOptions{
			DisabledChecks: b.opts.DisabledChecks,
			Stop:           b.opts.Stop,
			SuspendAtDyn:   d,
			Fuse:           b.opts.Fuse,
		})
		switch {
		case res.Trap != nil && res.Trap.Kind == TrapSuspended:
			// The carrier parked at the first fault-eligible instruction
			// with dyn >= d — the exact point the lane's fault would fire.
		case res.Trap != nil && res.Trap.Kind == TrapCancelled:
			b.live = false
			return ErrBatchStopped
		default:
			// The golden prefix cannot legitimately trap or complete before
			// a divergence point inside it; anything else is an
			// infrastructure fault, not a trial outcome.
			b.live = false
			return fmt.Errorf("vm: lockstep carrier diverged advancing to dyn %d: %v", d, res.Trap)
		}
		b.at = d
	}
	if err := into.RestoreFrom(b.carrier); err != nil {
		return err
	}
	b.peeled[lane] = true
	return nil
}

// RestoreFrom re-arms m with the suspended execution state of src — the
// machine-to-machine analogue of src.Snapshot() followed by m.Restore,
// without materializing the intermediate immutable copy (one memory copy
// instead of two, no per-peel allocations). src must be suspended on the
// fast engine over the same module revision and geometry; it is not mutated
// and stays suspended, so one carrier can seed any number of peels. m is
// left suspended at src's suspend point: its next Run continues from there,
// bit-identically to a run resumed on src itself.
func (m *Machine) RestoreFrom(src *Machine) error {
	if m == src {
		return fmt.Errorf("vm: RestoreFrom onto the source machine")
	}
	if m.eng == nil || src.eng == nil {
		return fmt.Errorf("vm: RestoreFrom requires the fast engine")
	}
	if src.eng != m.eng {
		return fmt.Errorf("vm: source machine belongs to a different module revision")
	}
	if len(src.susp) == 0 {
		return fmt.Errorf("vm: source machine is not suspended (Run must return a %v trap first)", TrapSuspended)
	}
	if src.timed != m.timed {
		return fmt.Errorf("vm: %s source machine cannot restore onto a %s machine", modeName(src.timed), modeName(m.timed))
	}
	if len(src.mem) != len(m.mem) ||
		len(src.timing.cacheTags) != len(m.timing.cacheTags) ||
		len(src.timing.predictor) != len(m.timing.predictor) {
		return fmt.Errorf("vm: source machine geometry differs")
	}
	// Mirror Restore field for field (snapshot.go documents the set); the
	// equivalence of that set to an uninterrupted run is established by the
	// snapshot suite, so this clone inherits it.
	for _, l := range m.susp {
		m.putFrame(l.ef, l.fr)
	}
	m.susp = m.susp[:0]
	m.resuming = nil
	m.resumePos = -1

	copy(m.mem, src.mem)
	m.sp = src.sp
	m.dyn = src.dyn
	m.laxPhis = src.laxPhis
	m.checkFails = src.checkFails
	m.perCheckFails = nil
	if src.perCheckFails != nil {
		m.perCheckFails = make(map[int]int64, len(src.perCheckFails))
		for id, n := range src.perCheckFails {
			m.perCheckFails[id] = n
		}
	}
	m.opCounts = src.opCounts
	for i, rc := range src.regionCounts {
		copy(m.regionCounts[i], rc)
	}
	if m.timed {
		tm, st := m.timing, src.timing
		tm.cursor, tm.slotUsed, tm.maxDone = st.cursor, st.slotUsed, st.maxDone
		copy(tm.cacheTags, st.cacheTags)
		copy(tm.predictor, st.predictor)
	}

	for _, l := range src.susp {
		fr := m.getFrame(l.ef)
		fr.entrySP = l.fr.entrySP
		for _, slot := range l.fr.live {
			fr.bits[slot] = l.fr.bits[slot]
			fr.defined[slot] = true
		}
		if m.timed {
			for _, slot := range l.fr.live {
				fr.ready[slot] = l.fr.ready[slot]
			}
		}
		fr.live = append(fr.live[:0], l.fr.live...)
		m.susp = append(m.susp, suspLevel{ef: l.ef, fr: fr, pc: l.pc})
	}
	return nil
}
