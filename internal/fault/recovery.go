package fault

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Recovery support (paper §IV-D): the scheme is detection-only and relies
// on an external recovery mechanism (Encore, checkpointing). This file
// models the simplest sound recovery — restart-and-re-execute: when a check
// fires, the program is re-run from its inputs. A transient fault does not
// recur, so the re-execution is fault-free and its output is correct; the
// price is the wasted work up to the detection point plus one clean run.

// RecoveryReport summarizes a campaign under restart recovery.
type RecoveryReport struct {
	Workload  string
	Technique string
	Trials    int
	// Recovered counts trials where a software check fired and the re-run
	// produced the golden output (always, for a transient fault).
	Recovered int
	// StillUSDC counts trials that completed with unacceptable output
	// despite protection (no check fired).
	StillUSDC int
	// Failures counts crashes/hangs. They too are restarted (a deployed
	// system restarts after any detected anomaly — the paper treats
	// hardware symptoms as recovery triggers as well), so they contribute
	// re-execution cost but are reported separately from software
	// detections.
	Failures int
	// MeanCycles is the average cycles per trial including the
	// re-execution cost of every restarted (detected or crashed) trial;
	// GoldenCycles is the fault-free cost.
	MeanCycles   float64
	GoldenCycles int64
}

// RecoveryOverhead is the mean per-trial slowdown versus the fault-free run.
func (r *RecoveryReport) RecoveryOverhead() float64 {
	if r.GoldenCycles == 0 {
		return 0
	}
	return r.MeanCycles/float64(r.GoldenCycles) - 1
}

// RunWithRecovery executes a campaign in which every software detection
// triggers a restart: the trial is re-run without the fault and the final
// output must match the golden output bit for bit. Cancelling ctx stops the
// campaign between trials and returns the context's error.
func RunWithRecovery(ctx context.Context, t Target, mod *ir.Module, technique string, cfg Config) (*RecoveryReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("fault: non-positive trial count")
	}
	if cfg.WatchdogFactor <= 0 {
		cfg.WatchdogFactor = 20
	}
	model, err := LookupModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	if !model.EngineInjected() && cfg.Engine != vm.EngineFast {
		return nil, fmt.Errorf("fault: fault model %q requires the fast engine (suspend-injected models park the machine via SuspendAtDyn, which only the fast engine implements)", model.Name())
	}

	goldenMach, err := newMachine(t, mod, 0, cfg.Engine, false)
	if err != nil {
		return nil, err
	}
	goldenRes := goldenMach.Run(vm.RunOptions{CountChecks: true})
	if goldenRes.Trap != nil {
		return nil, fmt.Errorf("fault: golden run trapped: %v", goldenRes.Trap)
	}
	golden, err := goldenMach.ReadGlobal(t.Output)
	if err != nil {
		return nil, err
	}
	disabled := make(map[int]bool)
	for id, n := range goldenRes.PerCheckFails {
		if n > 0 {
			disabled[id] = true
		}
	}

	rep := &RecoveryReport{
		Workload: t.Name, Technique: technique,
		Trials: cfg.Trials, GoldenCycles: goldenRes.Cycles,
	}
	maxDyn := goldenRes.Dyn*cfg.WatchdogFactor + 100_000
	// Recovery trials stay timed: MeanCycles sums every trial's cycles.
	mach, err := newMachine(t, mod, maxDyn, cfg.Engine, false)
	if err != nil {
		return nil, err
	}

	// Golden-prefix snapshots serve double duty here: faulty runs restore
	// the snapshot nearest below the trigger, and restart re-runs — which
	// are bit-identical to the golden run — restore the deepest one. Cycle
	// accounting is unaffected because snapshots carry the timing counters.
	snapAt := checkpointSchedule(cfg, goldenRes.Dyn)
	var snaps []*vm.Snapshot
	if len(snapAt) > 0 {
		if snaps, err = takeSnapshots(t, mod, cfg, disabled, maxDyn, snapAt, false); err != nil {
			return nil, err
		}
	}
	start := func(eff int64) error {
		if b := sort.Search(len(snapAt), func(k int) bool { return snapAt[k] > eff }); b > 0 {
			return mach.Restore(snaps[b-1])
		}
		mach.Reset()
		return nil
	}

	src := rand.NewSource(0)
	rng := rand.New(src)
	var totalCycles int64
	for i := 0; i < cfg.Trials; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan := drawPlan(model, cfg, goldenRes.Dyn, i, src, rng)
		if err := start(model.EffectiveTrigger(plan.TriggerDyn)); err != nil {
			return nil, err
		}
		res := runPlanned(mach, plan, cfg, disabled, time.Time{}, 0)
		// Cycle counters accumulate across the suspend/resume chain, so the
		// terminal Result's Cycles already covers every resumed leg.
		totalCycles += res.Cycles

		if res.Trap != nil {
			// Restart: re-execute without the fault. Both software
			// detections and hardware symptoms/crashes trigger recovery.
			if err := start(goldenRes.Dyn); err != nil {
				return nil, err
			}
			rerun := mach.Run(vm.RunOptions{DisabledChecks: disabled})
			totalCycles += rerun.Cycles
			if rerun.Trap != nil {
				return nil, fmt.Errorf("fault: recovery re-run trapped: %v", rerun.Trap)
			}
			out, err := mach.ReadGlobal(t.Output)
			if err != nil {
				return nil, err
			}
			for j := range golden {
				if out[j] != golden[j] {
					return nil, fmt.Errorf("fault: recovery produced wrong output at word %d", j)
				}
			}
			if res.Trap.Kind == vm.TrapCheck {
				rep.Recovered++
			} else {
				rep.Failures++
			}
			continue
		}
		out, err := mach.ReadGlobal(t.Output)
		if err != nil {
			return nil, err
		}
		same := true
		for j := range golden {
			if out[j] != golden[j] {
				same = false
				break
			}
		}
		if !same && !t.Acceptable(t.Measure(golden, out)) {
			rep.StillUSDC++
		}
	}
	rep.MeanCycles = float64(totalCycles) / float64(cfg.Trials)
	return rep, nil
}
