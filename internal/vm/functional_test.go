package vm_test

// Timed and functional runs. A functional machine (Config.Functional) skips
// the timing model, which is sound only if timing never feeds back into
// execution. These tests pin that down: functional runs, and timed runs
// under altered timing geometries, must agree with the default timed run on
// every observable except Cycles; functional snapshots must round-trip; and
// snapshots never cross modes.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// runConfig executes mod under cfg with the workload's test inputs bound.
// A traced run also folds the trace stream (and takes the per-instruction
// path); an untraced one takes fused dispatch.
func runConfig(t *testing.T, w *workloads.Workload, mod *ir.Module, cfg vm.Config, opts vm.RunOptions, traced bool) *engineRun {
	t.Helper()
	mach, err := vm.New(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(mach, workloads.Test); err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	var tr *hashTracer
	if traced {
		tr = newHashTracer()
		opts.Tracer = tr
	}
	res := mach.Run(opts)
	out, err := mach.ReadGlobal(w.Output)
	if err != nil {
		t.Fatal(err)
	}
	r := &engineRun{res: res, out: out, plan: opts.Fault}
	if tr != nil {
		r.traceN, r.traceH = tr.n, tr.h
	}
	return r
}

// withoutCycles copies r with Result.Cycles zeroed, so diffRuns compares
// every observable but the one timing is allowed to change.
func withoutCycles(r *engineRun) *engineRun {
	c := *r
	res := *r.res
	res.Cycles = 0
	c.res = &res
	return &c
}

// alteredTimings are timing geometries unlike the default in every
// dimension: cache lines and line words (power-of-two and not), predictor
// slots, issue width and latencies.
func alteredTimings() map[string]vm.TimingConfig {
	small := vm.DefaultTiming()
	small.IssueWidth = 1
	small.CacheLines, small.CacheLineWords = 16, 2
	small.PredictorSlots = 4
	small.MissPenalty = 100

	odd := vm.DefaultTiming()
	odd.IssueWidth = 3
	odd.CacheLines, odd.CacheLineWords = 100, 3
	odd.PredictorSlots = 7
	odd.LatInt, odd.LatMul, odd.LatDiv = 2, 1, 40
	odd.LatFAdd, odd.LatFMul, odd.LatFDiv, odd.LatIntrin = 7, 9, 3, 1
	odd.LatLoad, odd.LatStore = 5, 4
	odd.BranchPenalty, odd.CallOverhead, odd.CheckLatency = 1, 9, 6

	wide := vm.DefaultTiming()
	wide.IssueWidth = 8
	wide.CacheLines, wide.CacheLineWords = 4096, 16
	wide.PredictorSlots = 1 << 14
	wide.LatMul, wide.LatDiv, wide.LatFAdd, wide.LatFMul, wide.LatFDiv, wide.LatIntrin = 1, 1, 1, 1, 1, 1
	wide.MissPenalty, wide.BranchPenalty = 0, 0

	return map[string]vm.TimingConfig{"small": small, "odd": odd, "wide": wide}
}

// TestTimingIndependence is the soundness wall for functional trials: on
// every workload under every paper scheme and abft, a functional run and
// timed runs under three altered timing geometries must reproduce the
// default timed run's Ret, outputs, Dyn, trap, check counters, OpCounts and
// fault attribution; only Cycles may differ. Each cell checks a fault-free
// run with check counting and faulty runs whose faults may trap or fire a
// check, so trap kinds and dyns are compared too.
func TestTimingIndependence(t *testing.T) {
	modes := []string{core.SchemeOriginal, core.SchemeDup, core.SchemeDupVal, core.SchemeFullDup, core.SchemeABFT}
	names := make([]string, 0, 13)
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	faulty := 4
	if raceEnabled {
		names = []string{"tiff2bw", "g721dec", "kmeans"}
		modes = []string{core.SchemeOriginal, core.SchemeFullDup}
		faulty = 1
	}
	geometries := alteredTimings()
	for _, name := range names {
		for _, mode := range modes {
			name, mode := name, mode
			t.Run(name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				w := workloads.ByName(name)
				prot := protectedModule(t, w, mode)
				timed := vm.DefaultConfig()
				functional := vm.DefaultConfig()
				functional.Functional = true

				ref := runConfig(t, w, prot, timed, vm.RunOptions{CountChecks: true}, false)
				if ref.res.Trap != nil {
					t.Fatalf("fault-free run trapped: %v", ref.res.Trap)
				}
				fn := runConfig(t, w, prot, functional, vm.RunOptions{CountChecks: true}, false)
				if fn.res.Cycles != 0 {
					t.Fatalf("functional run reported %d cycles", fn.res.Cycles)
				}
				diffRuns(t, "functional", withoutCycles(ref), fn)
				diffRuns(t, "functional/traced",
					withoutCycles(runConfig(t, w, prot, timed, vm.RunOptions{CountChecks: true}, true)),
					runConfig(t, w, prot, functional, vm.RunOptions{CountChecks: true}, true))

				moved := false
				for gname, tc := range geometries {
					cfg := vm.DefaultConfig()
					cfg.Timing = tc
					alt := runConfig(t, w, prot, cfg, vm.RunOptions{CountChecks: true}, false)
					moved = moved || alt.res.Cycles != ref.res.Cycles
					diffRuns(t, "timing "+gname, withoutCycles(ref), withoutCycles(alt))
				}
				if !moved {
					t.Error("no altered geometry changed the cycle count: the comparison is vacuous")
				}

				for seed := int64(0); seed < int64(faulty); seed++ {
					plan := func() *vm.FaultPlan {
						r := rand.New(rand.NewSource(seed))
						return &vm.FaultPlan{
							Kind:       vm.FaultRegister,
							TriggerDyn: r.Int63n(ref.res.Dyn),
							PickSlot:   func(n int) int { return r.Intn(n) },
							PickBit:    func() int { return r.Intn(64) },
						}
					}
					fref := runConfig(t, w, prot, timed, vm.RunOptions{Fault: plan()}, false)
					diffRuns(t, "faulty functional", withoutCycles(fref),
						runConfig(t, w, prot, functional, vm.RunOptions{Fault: plan()}, false))
					cfg := vm.DefaultConfig()
					cfg.Timing = geometries["odd"]
					diffRuns(t, "faulty timing odd", withoutCycles(fref),
						withoutCycles(runConfig(t, w, prot, cfg, vm.RunOptions{Fault: plan()}, false)))
				}
			})
		}
	}
}

// TestFunctionalSnapshotRestore checks the functional snapshot path campaign
// trials take: a functional run suspended at several points, snapshotted,
// and finished on a second functional machine through Restore must match an
// uninterrupted functional run bit for bit, trace stream included.
func TestFunctionalSnapshotRestore(t *testing.T) {
	w := workloads.ByName("segm")
	mod := protectedModule(t, w, core.SchemeFullDup)
	cfg := vm.DefaultConfig()
	cfg.Functional = true
	base := runConfig(t, w, mod, cfg, vm.RunOptions{CountChecks: true}, true)
	if base.res.Trap != nil {
		t.Fatalf("functional run trapped: %v", base.res.Trap)
	}

	newMach := func() *vm.Machine {
		m, err := vm.New(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bind(m, workloads.Test); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		return m
	}
	for _, cut := range []int64{1, base.res.Dyn / 3, base.res.Dyn / 2, base.res.Dyn - 1} {
		producer := newMach()
		tr := newHashTracer()
		if res := producer.Run(vm.RunOptions{CountChecks: true, SuspendAtDyn: cut, Tracer: tr}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			t.Fatalf("cut %d: expected suspension, got %v", cut, res.Trap)
		}
		snap, err := producer.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		consumer := newMach()
		if err := consumer.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if !consumer.MatchesSnapshot(snap) {
			t.Fatalf("cut %d: restored machine does not match its snapshot", cut)
		}
		res := consumer.Run(vm.RunOptions{CountChecks: true, Tracer: tr})
		out, err := consumer.ReadGlobal(w.Output)
		if err != nil {
			t.Fatal(err)
		}
		diffRuns(t, "functional restored", base, &engineRun{res: res, out: out, traceN: tr.n, traceH: tr.h})
	}
}

// TestSnapshotModeMismatch pins the mode guard: a snapshot restores only
// onto a machine of its own mode, machine-to-machine restores likewise,
// snapshots of the other mode never match, and the tree engine (the timed
// reference) refuses functional mode.
func TestSnapshotModeMismatch(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	suspended := func(functional bool) *vm.Machine {
		cfg := vm.DefaultConfig()
		cfg.Functional = functional
		m, err := vm.New(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bind(m, workloads.Test); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		if res := m.Run(vm.RunOptions{SuspendAtDyn: 5000}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			t.Fatalf("expected suspension, got %v", res.Trap)
		}
		return m
	}
	timed, functional := suspended(false), suspended(true)
	tsnap, err := timed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fsnap, err := functional.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := suspended(true).Restore(tsnap); err == nil {
		t.Fatal("a timed snapshot restored onto a functional machine")
	}
	if err := suspended(false).Restore(fsnap); err == nil {
		t.Fatal("a functional snapshot restored onto a timed machine")
	}
	if err := suspended(true).RestoreFrom(timed); err == nil {
		t.Fatal("RestoreFrom copied a timed machine onto a functional one")
	}
	if err := suspended(false).RestoreFrom(functional); err == nil {
		t.Fatal("RestoreFrom copied a functional machine onto a timed one")
	}
	if functional.MatchesSnapshot(tsnap) || timed.MatchesSnapshot(fsnap) {
		t.Fatal("a snapshot of the other mode matched")
	}
	if !functional.MatchesSnapshot(fsnap) || !timed.MatchesSnapshot(tsnap) {
		t.Fatal("a machine does not match its own snapshot")
	}
	if err := suspended(true).Restore(fsnap); err != nil {
		t.Fatalf("same-mode restore failed: %v", err)
	}

	cfg := vm.DefaultConfig()
	cfg.Engine = vm.EngineTree
	cfg.Functional = true
	if _, err := vm.New(mod, cfg); err == nil {
		t.Fatal("the tree engine accepted functional mode")
	}
}
