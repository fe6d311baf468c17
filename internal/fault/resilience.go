package fault

// Campaign resilience: the supervision layer between the campaign entry
// point (Run) and the raw trial execution (runTrial). A campaign here is a
// long-lived service operation, not a benchmark script, so the failure of
// any one trial must never forfeit the rest:
//
//   - every trial attempt runs under recover(); a panic — in the vm, in a
//     user-supplied Measure/Acceptable callback, in the OnTrial hook — is
//     quarantined as an Anomaly carrying the panic stack and the exact
//     per-trial reproducer seed, and the worker rebuilds its machine and
//     moves on;
//   - a wall-clock deadline (Config.TrialTimeout, layered over the
//     dyn-count watchdog via vm.RunOptions.Deadline) reaps trials the
//     watchdog cannot bound; a timed-out trial gets one bounded retry —
//     transient host stalls are common under contention — before it too is
//     quarantined;
//   - context cancellation stops workers between trials and the campaign
//     returns a valid partial Report (Partial: true) instead of an error,
//     so every completed Outcome survives a Ctrl-C;
//   - with Config.TargetCI set, the campaign stops early once the Wilson
//     intervals for coverage and USDC rate are tight enough, recording how
//     many trials the stop saved.
//
// All shared state lives in the campaign struct; per-trial slots
// (rep.Trials[i], state[i]) are written only by the worker that owns trial
// i and read only after the worker pool joins, so the only locked state is
// the anomaly map and the early-stop tallies.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Anomaly reasons.
const (
	AnomalyPanic   = "panic"
	AnomalyTimeout = "timeout"
)

// Anomaly records a quarantined trial: one that panicked or exceeded the
// trial deadline (after a retry) and was excluded from the tally instead of
// killing the campaign. Seed is the per-trial rng seed — feeding it to a
// single-trial campaign replays the exact fault plan that misbehaved.
type Anomaly struct {
	Trial  int
	Seed   int64
	Reason string // AnomalyPanic or AnomalyTimeout
	Stack  string // panic stack trace (AnomalyPanic only)
}

// Per-trial dispositions in campaign.state.
const (
	trialPending uint8 = iota
	trialDone
	trialQuarantined
	// trialExcluded marks trials outside the campaign's shard range: they
	// belong to another shard's run, are never executed here, and count
	// neither as pending (a fully-decided shard is not Partial) nor in the
	// Tally.
	trialExcluded
)

// campaign is the shared state of one in-flight fault-injection campaign,
// used by both the from-scratch and the checkpointed worker pools.
type campaign struct {
	cfg       Config
	model     Model
	target    Target
	mod       *ir.Module
	golden    []uint64
	goldenDyn int64
	disabled  map[int]bool
	maxDyn    int64
	rep       *Report
	state     []uint8 // trialPending/trialDone/trialQuarantined, one per trial

	jw *journalWriter // nil when the campaign is not journaled

	mu        sync.Mutex
	anomalies map[int]Anomaly
	nDone     int // completed trials (early-stop tallies, incl. replayed)
	nCovered  int // Masked + HWDetect + SWDetect among them
	nUSDC     int

	stopEarly chan struct{}
	stopOnce  sync.Once
}

func newCampaign(t Target, mod *ir.Module, cfg Config, model Model, golden []uint64, goldenDyn int64, disabled map[int]bool, maxDyn int64, rep *Report) *campaign {
	return &campaign{
		cfg:       cfg,
		model:     model,
		target:    t,
		mod:       mod,
		golden:    golden,
		goldenDyn: goldenDyn,
		disabled:  disabled,
		maxDyn:    maxDyn,
		rep:       rep,
		state:     make([]uint8, cfg.Trials),
		anomalies: make(map[int]Anomaly),
		stopEarly: make(chan struct{}),
	}
}

// seedFor is the campaign's per-trial rng seed scheme — the single source
// of truth shared by runTrial, drawTriggers and anomaly reproducers.
func seedFor(cfg Config, trial int) int64 { return cfg.Seed + int64(trial)*7919 }

// excludeOutsideShard marks every trial outside [lo, hi) as another shard's
// responsibility before any disposition is taken.
func (c *campaign) excludeOutsideShard(lo, hi int) {
	for i := range c.state {
		if i < lo || i >= hi {
			c.state[i] = trialExcluded
		}
	}
}

// stopRequested reports whether the early-stop criterion has fired.
func (c *campaign) stopRequested() bool {
	select {
	case <-c.stopEarly:
		return true
	default:
		return false
	}
}

// noteDone folds one completed trial into the early-stop tallies, reports
// progress to the OnProgress hook, and fires the stop signal once both
// Wilson intervals are tight enough.
func (c *campaign) noteDone(tr Trial) {
	c.mu.Lock()
	c.nDone++
	switch tr.Outcome {
	case Masked, HWDetect, SWDetect:
		c.nCovered++
	case USDC:
		c.nUSDC++
	}
	done, covered, usdc := c.nDone, c.nCovered, c.nUSDC
	stop := c.cfg.TargetCI > 0 &&
		ciTight(c.nCovered, c.nDone, c.cfg.TargetCI) &&
		ciTight(c.nUSDC, c.nDone, c.cfg.TargetCI)
	c.mu.Unlock()
	if c.cfg.OnProgress != nil {
		c.cfg.OnProgress(done, covered, usdc)
	}
	if stop {
		c.stopOnce.Do(func() { close(c.stopEarly) })
	}
}

// recordTrial publishes trial i's outcome: the per-trial slot, the journal,
// and the early-stop tallies.
func (c *campaign) recordTrial(i int, tr Trial) error {
	c.rep.Trials[i] = tr
	c.state[i] = trialDone
	if c.jw != nil {
		if err := c.jw.append(&journalRecord{T: encodeTrial(i, tr)}); err != nil {
			return err
		}
	}
	c.noteDone(tr)
	return nil
}

// quarantine retires trial i as an anomaly instead of an outcome.
func (c *campaign) quarantine(i int, reason, stack string) error {
	a := Anomaly{Trial: i, Seed: seedFor(c.cfg, i), Reason: reason, Stack: stack}
	c.state[i] = trialQuarantined
	c.mu.Lock()
	c.anomalies[i] = a
	c.mu.Unlock()
	if c.jw != nil {
		return c.jw.append(&journalRecord{A: &journalAnomaly{
			Index: i, Seed: a.Seed, Reason: a.Reason, Stack: a.Stack,
		}})
	}
	return nil
}

// restoreFromJournal splices a replayed journal state into the campaign so
// already-decided trials are never re-run. Records outside the campaign's
// shard range are skipped defensively (the header identity check already
// rejects a journal from a different shard).
func (c *campaign) restoreFromJournal(st *journalState) {
	for i, tr := range st.trials {
		if c.state[i] == trialExcluded {
			continue
		}
		c.rep.Trials[i] = tr
		c.state[i] = trialDone
		c.noteDone(tr)
		c.rep.Replayed++
	}
	for i, a := range st.anomalies {
		if c.state[i] == trialExcluded {
			continue
		}
		c.state[i] = trialQuarantined
		c.anomalies[i] = a
		c.rep.Replayed++
	}
}

// pendingTrials lists the trial indices still without a disposition.
func (c *campaign) pendingTrials() []int {
	pending := make([]int, 0, len(c.state))
	for i, s := range c.state {
		if s == trialPending {
			pending = append(pending, i)
		}
	}
	return pending
}

// closeJournal flushes and closes the journal once; safe on every exit path.
func (c *campaign) closeJournal() error {
	if c.jw == nil {
		return nil
	}
	jw := c.jw
	c.jw = nil
	return jw.close()
}

// finalize computes the Tally over completed trials and the partial /
// early-stop / anomaly bookkeeping. ctxErr is the campaign context's error,
// nil when it was never cancelled.
func (c *campaign) finalize(ctxErr error) {
	rep := c.rep
	pendingLeft := 0
	for i, s := range c.state {
		switch s {
		case trialPending:
			pendingLeft++
		case trialDone:
			tr := rep.Trials[i]
			ta := &rep.Tally
			ta.N++
			ta.Count[tr.Outcome]++
			if tr.Outcome == SWDetect {
				switch tr.CheckKind {
				case ir.CheckDup:
					ta.SWDetectDup++
				case ir.CheckCFC:
					ta.SWDetectCFC++
				case ir.CheckABFT:
					ta.SWDetectABFT++
				default:
					ta.SWDetectValue++
				}
			}
			if tr.SDC {
				ta.SDC++
				if tr.Acceptable {
					ta.ASDC++
				} else if tr.RelChange >= c.cfg.LargeChange {
					ta.USDCLarge++
				} else {
					ta.USDCSmall++
				}
			}
		}
	}
	if len(c.anomalies) > 0 {
		rep.Anomalies = make([]Anomaly, 0, len(c.anomalies))
		for _, a := range c.anomalies {
			rep.Anomalies = append(rep.Anomalies, a)
		}
		sort.Slice(rep.Anomalies, func(i, j int) bool { return rep.Anomalies[i].Trial < rep.Anomalies[j].Trial })
	}
	if pendingLeft > 0 {
		if c.stopRequested() && ctxErr == nil {
			rep.EarlyStopped = true
			rep.TrialsSaved = pendingLeft
		} else {
			rep.Partial = true
		}
	}
}

// workerState is one campaign worker's private execution context. The rng
// pair is re-seeded per trial, so workers are interchangeable; the machine
// (and the lockstep batch's carrier) is rebuilt lazily after a panic left
// it in an unknown state.
type workerState struct {
	c     *campaign
	mach  *vm.Machine
	batch *vm.BatchMachine // lockstep carrier, built on first use
	stop  <-chan struct{}  // campaign context's Done, wired into the carrier
	src   rand.Source
	rng   *rand.Rand
}

func (c *campaign) newWorker() *workerState {
	src := rand.NewSource(0)
	return &workerState{c: c, src: src, rng: rand.New(src)}
}

func (ws *workerState) ensureMachine() error {
	if ws.mach != nil {
		return nil
	}
	mach, err := newMachine(ws.c.target, ws.c.mod, ws.c.maxDyn, ws.c.cfg.Engine, true)
	if err != nil {
		return err
	}
	ws.mach = mach
	return nil
}

// ensureBatch builds the worker's lockstep batch on first use. The carrier
// is a full campaign machine of its own (inputs bound, watchdog sized), so
// a panic that poisons it is handled like a poisoned trial machine: drop it
// and rebuild here on the next bin.
func (ws *workerState) ensureBatch() (*vm.BatchMachine, error) {
	if ws.batch != nil {
		return ws.batch, nil
	}
	carrier, err := newMachine(ws.c.target, ws.c.mod, ws.c.maxDyn, ws.c.cfg.Engine, true)
	if err != nil {
		return nil, err
	}
	b, err := vm.NewBatch(carrier, vm.BatchOptions{DisabledChecks: ws.c.disabled, Stop: ws.stop, Fuse: fuseMode(ws.c.cfg)})
	if err != nil {
		return nil, err
	}
	ws.batch = b
	return b, nil
}

// runOne drives trial i to a terminal disposition — a recorded outcome or a
// quarantined anomaly. A non-empty snaps ladder enables convergence
// fast-forwarding for the trial's suffix (see runTrial). Only infrastructure
// failures (machine construction, journal I/O) surface as errors and abort
// the campaign.
func (c *campaign) runOne(ws *workerState, i int, snap *vm.Snapshot, snaps []*vm.Snapshot) error {
	for attempt := 0; ; attempt++ {
		tr, timedOut, panicked, stack, err := c.attempt(ws, i, snap, snaps)
		if err != nil {
			return err
		}
		if panicked {
			return c.quarantine(i, AnomalyPanic, stack)
		}
		if timedOut {
			// One bounded retry: a deadline miss can be a transient host
			// stall (GC pause, noisy neighbor) rather than a stuck trial.
			if attempt == 0 {
				continue
			}
			return c.quarantine(i, AnomalyTimeout, "")
		}
		return c.recordTrial(i, tr)
	}
}

// attempt executes one guarded trial attempt. A recovered panic discards
// the worker's machine — its state is unknown mid-unwind — and reports the
// stack for the quarantine record.
func (c *campaign) attempt(ws *workerState, i int, snap *vm.Snapshot, snaps []*vm.Snapshot) (tr Trial, timedOut, panicked bool, stack string, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			stack = fmt.Sprintf("panic: %v\n\n%s", r, debug.Stack())
			ws.mach = nil
		}
	}()
	if c.cfg.OnTrial != nil {
		c.cfg.OnTrial(i)
	}
	if err = ws.ensureMachine(); err != nil {
		return
	}
	var deadline time.Time
	if c.cfg.TrialTimeout > 0 {
		deadline = time.Now().Add(c.cfg.TrialTimeout)
	}
	tr, timedOut, err = runTrial(ws.mach, snap, snaps, c.model, c.target, c.cfg, c.golden, c.goldenDyn, c.disabled, i, ws.src, ws.rng, deadline)
	return
}

// runScratch is the classic campaign body: workers pull pending trial
// indices from a shared channel and run each from dyn 0.
func (c *campaign) runScratch(ctx context.Context, pending []int, workers int) error {
	var wg sync.WaitGroup
	// Buffered so the feeding loop never blocks even if every worker exits
	// early (cancellation, early stop, setup error).
	trialCh := make(chan int, len(pending))
	errCh := make(chan error, workers)

	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := c.newWorker()
			for i := range trialCh {
				if ctx.Err() != nil || c.stopRequested() {
					return
				}
				if err := c.runOne(ws, i, nil, nil); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for _, i := range pending {
		trialCh <- i
	}
	close(trialCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	return nil
}

// runCheckpointed is the checkpoint-aware campaign body: pending trials are
// binned by the snapshot nearest below their effective trigger (bin 0 = no
// usable snapshot, run from scratch) and workers claim whole bins so each
// worker touches few snapshots and the expensive scratch bin starts first.
// Bins at or above the lockstep threshold run through a shared carrier
// (runBinLockstep); smaller bins degrade to the solo restore-per-trial path.
func (c *campaign) runCheckpointed(ctx context.Context, pending []int, workers int, snapAt []int64) error {
	if ctx.Err() != nil {
		return nil // finalize marks the report partial
	}
	triggers := drawTriggers(c.cfg, c.goldenDyn)
	var snaps []*vm.Snapshot
	if len(snapAt) > 0 {
		var err error
		snaps, err = takeSnapshots(c.target, c.mod, c.cfg, c.disabled, c.maxDyn, snapAt, true)
		if err != nil {
			return err
		}
	}

	// The convergence ladder passed to every trial suffix; bin restores
	// still use snaps directly, so disabling convergence never disables
	// checkpointing.
	convSnaps := snaps
	if c.cfg.Converge < 0 {
		convSnaps = nil
	}

	// bins[0] holds trials whose effective trigger precedes the first
	// snapshot (the whole campaign, when there is no schedule); bins[b] for
	// b >= 1 restores snaps[b-1].
	bins := make([][]int, len(snapAt)+1)
	for _, i := range pending {
		eff := c.model.EffectiveTrigger(triggers[i])
		b := sort.Search(len(snapAt), func(k int) bool { return snapAt[k] > eff })
		bins[b] = append(bins[b], i)
	}
	minLanes := lockstepMinLanes(c.cfg)

	// Work units are (trials, snapshot) pairs. When lockstep will batch the
	// scratch bin, it is split into per-worker chunks — each chunk gets its
	// own carrier, so one bin holding most of the campaign (always, without
	// a schedule) cannot serialize the pool. Chunking is outcome-neutral:
	// trials are independent and every chunk is a valid scratch bin.
	type binWork struct {
		trials []int
		snap   *vm.Snapshot
	}
	work := make([]binWork, 0, len(bins)+workers)
	scratch := bins[0]
	chunks := 1
	if minLanes > 0 && workers > 1 && len(scratch) >= 2*minLanes {
		chunks = workers
		if m := len(scratch) / minLanes; chunks > m {
			chunks = m
		}
	}
	for k := 0; k < chunks; k++ {
		if lo, hi := len(scratch)*k/chunks, len(scratch)*(k+1)/chunks; lo < hi {
			work = append(work, binWork{scratch[lo:hi], nil})
		}
	}
	for b := 1; b < len(bins); b++ {
		work = append(work, binWork{bins[b], snaps[b-1]})
	}

	var wg sync.WaitGroup
	binCh := make(chan int, len(work))
	errCh := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := c.newWorker()
			ws.stop = ctx.Done()
			for b := range binCh {
				bw := work[b]
				if minLanes > 0 && len(bw.trials) >= minLanes {
					if err := c.runBinLockstep(ctx, ws, bw.trials, bw.snap, triggers, convSnaps); err != nil {
						errCh <- err
						return
					}
					continue
				}
				for _, i := range bw.trials {
					if ctx.Err() != nil || c.stopRequested() {
						return
					}
					// Solo path with the golden ladder: checkpointed trials
					// fast-forward masked suffixes exactly like lockstep ones.
					if err := c.runOne(ws, i, bw.snap, convSnaps); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()
	}
	// Ascending order puts the scratch chunks (longest per-trial runtime)
	// at the front of the queue.
	for b := range work {
		binCh <- b
	}
	close(binCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	return nil
}

// runBinLockstep drives one checkpoint bin through a lockstep carrier:
// trials peel off in ascending effective-trigger order (ties broken by
// trial index, so the carrier advances monotonically) and each runs its
// divergent suffix through the same supervised disposition path as the solo
// pool — recordTrial, timeout retry, panic quarantine, early stop. A panic
// anywhere in a trial discards the carrier (its state is unknown
// mid-unwind); the batch is re-armed for the remaining lanes, which costs
// one re-advance from the bin snapshot and nothing in outcomes, since
// peeling never consumes carrier state. snaps is the campaign's full golden
// snapshot ladder — every bin gets it, because a trial's suffix can converge
// at any snapshot above its own trigger, not just its bin's base.
func (c *campaign) runBinLockstep(ctx context.Context, ws *workerState, bin []int, base *vm.Snapshot, triggers []int64, snaps []*vm.Snapshot) error {
	order := append([]int(nil), bin...)
	sort.SliceStable(order, func(a, b int) bool {
		return c.model.EffectiveTrigger(triggers[order[a]]) < c.model.EffectiveTrigger(triggers[order[b]])
	})
	lanes := make([]int, len(order))
	arm := func(from int) error {
		b, err := ws.ensureBatch()
		if err != nil {
			return err
		}
		b.Reset(base)
		for k := from; k < len(order); k++ {
			d := c.model.EffectiveTrigger(triggers[order[k]])
			// Binning compares against the *requested* snapshot indices, but
			// the snapshot itself parks at the first fault-eligible
			// instruction at or after its index — possibly past a trigger
			// binned here. Fact 1 (checkpoint.go) guarantees nothing eligible
			// lies in between, so the snapshot state IS such a lane's
			// divergence state: clamp rather than advance-to-the-past.
			if base != nil && d < base.Dyn() {
				d = base.Dyn()
			}
			lanes[k] = b.AddLane(d)
		}
		return nil
	}
	if err := arm(0); err != nil {
		return err
	}
	for k, i := range order {
		if ctx.Err() != nil || c.stopRequested() {
			return nil
		}
		err := c.runOneLockstep(ws, i, lanes[k], snaps)
		if ws.batch == nil && k+1 < len(order) {
			// A panic poisoned the carrier; rebuild it for the rest of the
			// bin before deciding what the error means.
			if err2 := arm(k + 1); err2 != nil {
				return err2
			}
		}
		if err != nil {
			if errors.Is(err, vm.ErrBatchStopped) {
				return nil // cancellation landed mid-advance; finalize marks partial
			}
			return err
		}
	}
	return nil
}

// runOneLockstep is runOne's lockstep twin: it drives trial i — occupying
// the given carrier lane — to a terminal disposition. The timeout retry
// re-peels the same lane: the carrier still holds the divergence point, so
// the retry costs one state clone, not a prefix re-run.
func (c *campaign) runOneLockstep(ws *workerState, i, lane int, snaps []*vm.Snapshot) error {
	for attempt := 0; ; attempt++ {
		tr, timedOut, panicked, stack, err := c.attemptLockstep(ws, i, lane, snaps)
		if err != nil {
			return err
		}
		if panicked {
			return c.quarantine(i, AnomalyPanic, stack)
		}
		if timedOut {
			if attempt == 0 {
				continue
			}
			return c.quarantine(i, AnomalyTimeout, "")
		}
		return c.recordTrial(i, tr)
	}
}

// attemptLockstep executes one guarded lockstep trial attempt: draw the
// plan, peel the lane into the worker's solo machine, run the suffix. The
// draw precedes the peel so the rng stream matches runTrial draw for draw;
// the peeled machine is positioned exactly where a solo Restore+run-to-
// trigger would put it, so the suffix classifies identical Results. The
// suffix runs through finishTrialConverging: crossings of the golden
// snapshot ladder let a re-converged trial short-circuit to its (provably
// golden) outcome. A recovered panic discards both the solo machine and the
// carrier.
func (c *campaign) attemptLockstep(ws *workerState, i, lane int, snaps []*vm.Snapshot) (tr Trial, timedOut, panicked bool, stack string, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			stack = fmt.Sprintf("panic: %v\n\n%s", r, debug.Stack())
			ws.mach = nil
			ws.batch = nil
		}
	}()
	if c.cfg.OnTrial != nil {
		c.cfg.OnTrial(i)
	}
	if err = ws.ensureMachine(); err != nil {
		return
	}
	plan := drawPlan(c.model, c.cfg, c.goldenDyn, i, ws.src, ws.rng)
	if err = ws.batch.Peel(lane, ws.mach); err != nil {
		return
	}
	var deadline time.Time
	if c.cfg.TrialTimeout > 0 {
		deadline = time.Now().Add(c.cfg.TrialTimeout)
	}
	tr, timedOut = finishTrial(ws.mach, plan, c.target, c.cfg, c.golden, c.disabled, deadline, snaps)
	return
}
