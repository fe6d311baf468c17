package vm

import (
	"slices"
	"testing"
)

// TestMatchIgnoresTiming builds a trial whose state differs from
// the golden run only in timing. In loopModule's summing loop over a table
// of equal values, one iteration's load address is corrupted to another
// in-bounds word 512 words away: the load still reads the same value, the
// address register is redefined one iteration later, and from then on the
// trial agrees with golden on every architectural bit — while its cache
// holds a line golden has not touched yet. At a later crossing the trial
// must match the golden snapshot in both modes, and the timed trial, run
// on, must reach golden's values and dyn.
func TestMatchIgnoresTiming(t *testing.T) {
	const n = 2048
	mod := loopModule(t, n)
	data := make([]uint64, n)
	for i := range data {
		data[i] = 7
	}
	for _, functional := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Functional = functional
		newMach := func() *Machine {
			m, err := New(mod, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.BindInput("in", data); err != nil {
				t.Fatal(err)
			}
			m.Reset()
			return m
		}
		const crossing = 1000 // about eleven iterations after the corruption

		golden := newMach()
		if res := golden.Run(RunOptions{SuspendAtDyn: crossing}); res.Trap == nil || res.Trap.Kind != TrapSuspended {
			t.Fatalf("golden: expected suspension, got %v", res.Trap)
		}
		snap, err := golden.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		goldenRes := golden.Run(RunOptions{})

		// Park the trial on the load of an iteration near dyn 900, one
		// eligible instruction at a time.
		trial := newMach()
		var addrSlot int
		for d := int64(900); ; d = trial.Dyn() + 1 {
			if res := trial.Run(RunOptions{SuspendAtDyn: d}); res.Trap == nil || res.Trap.Kind != TrapSuspended {
				t.Fatalf("trial: expected suspension, got %v", res.Trap)
			}
			l := trial.susp[0]
			if li := &l.ef.code[l.pc]; li.op == lopLoad {
				addrSlot = int(li.a0)
				break
			}
		}
		fr := trial.susp[0].fr
		fr.bits[addrSlot] ^= 1 << 9 // a different, in-bounds word holding the same value

		if res := trial.Run(RunOptions{SuspendAtDyn: crossing}); res.Trap == nil || res.Trap.Kind != TrapSuspended {
			t.Fatalf("trial: expected suspension at the crossing, got %v", res.Trap)
		}
		if !functional && slices.Equal(trial.timing.cacheTags, snap.cacheTags) {
			t.Fatal("timed trial's cache tags equal golden's at the crossing: the test exercises nothing")
		}
		if !trial.MatchesSnapshot(snap) {
			t.Fatalf("functional=%v: no match at the crossing", functional)
		}
		res := trial.Run(RunOptions{})
		out, _ := trial.ReadGlobal("out")
		want, _ := golden.ReadGlobal("out")
		if res.Trap != nil || res.Dyn != goldenRes.Dyn || out[0] != want[0] {
			t.Fatalf("functional=%v: trial finished %+v out %v, golden %+v out %v", functional, res, out, goldenRes, want)
		}
	}
}

// TestMatchesSnapshotSeesEveryMemoryWord flips single bits of the memory
// image, at either end of it and in the middle, on a machine that matches
// its snapshot: each flip must make the match fail in both modes.
func TestMatchesSnapshotSeesEveryMemoryWord(t *testing.T) {
	mod := loopModule(t, 64)
	for _, functional := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Functional = functional
		m, err := New(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.BindInput("in", make([]uint64, 64)); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		if res := m.Run(RunOptions{SuspendAtDyn: 100}); res.Trap == nil || res.Trap.Kind != TrapSuspended {
			t.Fatalf("expected suspension, got %v", res.Trap)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		n := len(m.mem)
		for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
			for _, bit := range []uint{0, 31, 63} {
				m.mem[i] ^= 1 << bit
				if m.MatchesSnapshot(snap) {
					t.Fatalf("functional=%v: flipping bit %d of word %d of %d still matches", functional, bit, i, n)
				}
				m.mem[i] ^= 1 << bit
			}
		}
		if !m.MatchesSnapshot(snap) {
			t.Fatalf("functional=%v: machine no longer matches its own snapshot", functional)
		}
	}
}
