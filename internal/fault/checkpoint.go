package fault

// Checkpoint-aware campaign scheduling. Every SFI trial is bit-identical to
// the golden run until its fault triggers, so re-executing the golden prefix
// from dyn 0 on each trial wastes — on average — half of every campaign's
// cycles. Instead, one instrumented golden run drops K immutable snapshots
// at interval boundaries (vm.Machine.Snapshot via RunOptions.SuspendAtDyn),
// trials are binned by the snapshot nearest below their pre-drawn trigger
// point, and workers claim whole bins, running each trial as
// restore-snapshot + execute-forward.
//
// Correctness rests on three facts:
//
//  1. The suspend point uses the same eligibility condition as register
//     fault injection (first non-phi instruction whose pre-increment dyn
//     reaches the requested index), so no fault-eligible instruction lies
//     between a requested snapshot index and the actual suspension — a
//     snapshot requested at S serves every trial whose effective trigger is
//     >= S.
//  2. The instrumented run executes with the campaign's DisabledChecks set
//     (and nothing else), exactly like a trial's prefix: disabled checks
//     leave no trace in any counter, so the snapshot state equals the state
//     a from-scratch trial holds at the suspend point, bit for bit.
//  3. Trial randomness is unaffected: triggers are pre-drawn with the same
//     per-trial seed scheme and draw order runTrial uses, and runTrial
//     re-seeds and re-draws them, so binning never perturbs a sequence.

import (
	"fmt"
	"math/rand"

	"repro/internal/ir"
	"repro/internal/vm"
)

const (
	// minSnapInterval is the smallest golden-prefix span worth a snapshot:
	// below this, restore overhead (full memory copy) rivals re-execution.
	minSnapInterval = 20_000
	// maxSnapshots bounds memory held by a campaign's snapshot set.
	maxSnapshots = 32
	// lockstepMaxSnapshots bounds the *automatic* schedule when lockstep
	// batching is on. Solo trials want dense snapshots (each trial re-runs
	// its bin prefix alone), but a lockstep carrier serves every lane a
	// state clone at its exact divergence point, so intra-bin prefix length
	// stops mattering; fewer, larger bins mean more lanes amortizing each
	// carrier advance and less snapshot memory held.
	lockstepMaxSnapshots = 8
	// lockstepAutoMinLanes is the default smallest bin worth a carrier:
	// below it, the carrier's own restore roughly cancels the sharing win.
	lockstepAutoMinLanes = 3
)

// lockstepMinLanes resolves Config.Lockstep to the smallest bin size run in
// lockstep, or 0 when batching is disabled (explicitly, or because the
// campaign lacks the fast engine that carriers require).
func lockstepMinLanes(cfg Config) int {
	if cfg.Lockstep < 0 || cfg.Engine != vm.EngineFast {
		return 0
	}
	if cfg.Lockstep > 0 {
		return cfg.Lockstep
	}
	return lockstepAutoMinLanes
}

// checkpointSchedule returns the dyn indices at which the instrumented
// golden run suspends to capture snapshots, evenly spaced over the golden
// run, or nil when checkpointing is skipped: explicit opt-out
// (cfg.Checkpoints < 0), a non-fast engine (snapshots are a fast-engine
// feature), or a golden run too short to amortize the snapshot overhead.
func checkpointSchedule(cfg Config, goldenDyn int64) []int64 {
	if cfg.Checkpoints < 0 || cfg.Engine != vm.EngineFast {
		return nil
	}
	n := cfg.Checkpoints
	if n == 0 {
		n = int(goldenDyn / minSnapInterval)
		lim := maxSnapshots
		if lockstepMinLanes(cfg) > 0 {
			lim = lockstepMaxSnapshots
		}
		if n > lim {
			n = lim
		}
	}
	if n < 2 {
		return nil
	}
	snapAt := make([]int64, 0, n)
	last := int64(0)
	for k := 0; k < n; k++ {
		s := goldenDyn * int64(k+1) / int64(n+1)
		if s > last {
			snapAt = append(snapAt, s)
			last = s
		}
	}
	if len(snapAt) < 2 {
		return nil
	}
	return snapAt
}

// drawTriggers pre-draws every trial's TriggerDyn for binning, using the
// identical seed scheme and first-draw position as runTrial.
func drawTriggers(cfg Config, goldenDyn int64) []int64 {
	src := rand.NewSource(0)
	rng := rand.New(src)
	triggers := make([]int64, cfg.Trials)
	for i := range triggers {
		src.Seed(seedFor(cfg, i))
		triggers[i] = rng.Int63n(goldenDyn)
	}
	return triggers
}

// The earliest dyn index whose machine state a trial's injection can
// observe is the model's EffectiveTrigger: register and memory faults fire
// at the first fault-eligible instruction with pre-increment dyn >=
// TriggerDyn — the suspend point itself — while branch-target faults fire
// at the first taken branch whose post-increment dyn reaches TriggerDyn,
// i.e. pre-increment TriggerDyn-1.

// takeSnapshots performs the instrumented golden run: one machine executes
// the golden prefix once, suspending at each scheduled dyn index to capture
// an immutable snapshot. Snapshots are shared read-only across workers and
// restore only onto machines of the same mode, so functional selects the
// mode of the machines that will restore them (see newMachine).
func takeSnapshots(t Target, mod *ir.Module, cfg Config, disabled map[int]bool, maxDyn int64, snapAt []int64, functional bool) ([]*vm.Snapshot, error) {
	mach, err := newMachine(t, mod, maxDyn, cfg.Engine, functional)
	if err != nil {
		return nil, err
	}
	snaps := make([]*vm.Snapshot, len(snapAt))
	for k, s := range snapAt {
		res := mach.Run(vm.RunOptions{DisabledChecks: disabled, SuspendAtDyn: s, Fuse: fuseMode(cfg)})
		if res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			return nil, fmt.Errorf("fault: snapshot run requested suspend at dyn %d, got %v", s, res.Trap)
		}
		if snaps[k], err = mach.Snapshot(); err != nil {
			return nil, err
		}
	}
	return snaps, nil
}

// The checkpoint-aware campaign body lives in resilience.go
// (campaign.runCheckpointed): it bins pending trials by the snapshot
// nearest below their effective trigger and drives each through the same
// supervised runOne path as the from-scratch pool.
