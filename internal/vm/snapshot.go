package vm

// Machine snapshotting for the fast engine. A run paused mid-flight via
// RunOptions.SuspendAtDyn can be captured as an immutable Snapshot and later
// re-armed — on the same machine or on any other machine built over the same
// module revision and configuration — with Restore; the next Run then
// continues from the suspend point. The fault campaign uses this to execute
// each injection trial as restore-nearest-golden-snapshot + run-forward
// instead of re-executing the golden prefix from dyn 0.
//
// The suspend point is the same program point at which a register fault
// would be injected: the first non-phi instruction whose pre-increment
// dynamic index reaches SuspendAtDyn. Because no fault-eligible instruction
// lies between the requested index and the actual suspension, a snapshot
// requested at S serves every trial whose effective trigger index is >= S
// bit-identically (see internal/fault's checkpoint scheduler).
//
// What is captured: the full memory image (garbage words above sp are
// semantically visible — alloca does not zero its frame), the stack pointer,
// the dynamic instruction counter, opcode accounting (opCounts plus the
// per-region entry counters), check state (checkFails, perCheckFails,
// laxPhis), and the suspended call chain with the register bits of every
// activation. A timed machine's snapshot also captures the complete
// timing-model state: the issue cursor, slot and completion horizon, cache
// tags, branch predictor, and the ready time of every captured register. A
// functional machine (Config.Functional) has no timing state, so its
// snapshots carry none, and a snapshot restores only onto a machine of its
// own mode. MatchesSnapshot compares the architectural part alone, in
// either mode. Scratch buffers (phiScratch, callScratch) are dead at every
// suspend point and are not captured.

import (
	"bytes"
	"fmt"
	"unsafe"

	"repro/internal/ir"
)

// suspLevel is one activation of a suspended call chain. While a
// TrapSuspended unwinds the Go stack through execLoop/execCall, each level
// appends itself, so the chain ends up innermost-first. The frames stay
// owned by the machine (not its pools) until the run is resumed or Reset.
type suspLevel struct {
	ef *engFunc
	fr *frame
	pc int
}

// snapFrame is the immutable image of one suspended activation record. Only
// defined slots are stored: every other register slot of a live frame is
// zero (getFrame's pooling invariant), and constant extension slots are
// rebuilt from the lowering.
type snapFrame struct {
	ef      *engFunc
	pc      int
	entrySP uint64
	live    []int32  // slots defined at suspension, in definition order
	bits    []uint64 // bits[i] is the value of slot live[i]
	ready   []int64  // ready[i] is its ready time; nil when functional
}

// Snapshot is an immutable copy of a suspended machine's complete execution
// state. It can be shared across goroutines and restored any number of
// times; Restore only copies out of it.
type Snapshot struct {
	eng   *engModule // identity guard: restoring requires the same lowering
	timed bool       // taken on a timed machine; restores onto timed ones only

	dyn     int64
	sp      uint64
	laxPhis bool
	mem     []uint64

	// Timing-model state; zero and nil in a functional snapshot.
	cursor    int64
	slotUsed  int
	maxDone   int64
	cacheTags []uint64
	predictor []uint8

	opCounts      [ir.NumOps]int64
	regionCounts  [][]int64
	checkFails    int64
	perCheckFails map[int]int64

	levels []snapFrame // suspended call chain, innermost-first
}

// Dyn returns the dynamic-instruction index at which the snapshot was taken
// (the index of the next instruction to execute on resume).
func (s *Snapshot) Dyn() int64 { return s.dyn }

// Snapshot captures the machine's suspended execution state. The machine
// must be suspended: its last Run must have returned a TrapSuspended result
// that has not been consumed by another Run, Reset, or Restore.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.eng == nil {
		return nil, fmt.Errorf("vm: snapshots require the fast engine")
	}
	if len(m.susp) == 0 {
		return nil, fmt.Errorf("vm: machine is not suspended (Run must return a %v trap first)", TrapSuspended)
	}
	s := &Snapshot{
		eng:        m.eng,
		timed:      m.timed,
		dyn:        m.dyn,
		sp:         m.sp,
		laxPhis:    m.laxPhis,
		mem:        append([]uint64(nil), m.mem...),
		opCounts:   m.opCounts,
		checkFails: m.checkFails,
		levels:     make([]snapFrame, len(m.susp)),
	}
	if m.timed {
		tm := m.timing
		s.cursor, s.slotUsed, s.maxDone = tm.cursor, tm.slotUsed, tm.maxDone
		s.cacheTags = append([]uint64(nil), tm.cacheTags...)
		s.predictor = append([]uint8(nil), tm.predictor...)
	}
	s.regionCounts = make([][]int64, len(m.regionCounts))
	for i, rc := range m.regionCounts {
		s.regionCounts[i] = append([]int64(nil), rc...)
	}
	if m.perCheckFails != nil {
		s.perCheckFails = make(map[int]int64, len(m.perCheckFails))
		for id, n := range m.perCheckFails {
			s.perCheckFails[id] = n
		}
	}
	for i, l := range m.susp {
		sf := snapFrame{
			ef:      l.ef,
			pc:      l.pc,
			entrySP: l.fr.entrySP,
			live:    append([]int32(nil), l.fr.live...),
			bits:    make([]uint64, len(l.fr.live)),
		}
		for j, slot := range l.fr.live {
			sf.bits[j] = l.fr.bits[slot]
		}
		if m.timed {
			sf.ready = make([]int64, len(l.fr.live))
			for j, slot := range l.fr.live {
				sf.ready[j] = l.fr.ready[slot]
			}
		}
		s.levels[i] = sf
	}
	return s, nil
}

// Restore replaces the machine's execution state with the snapshot's,
// leaving it suspended at the snapshot's suspend point: the next Run
// continues from there. The machine must run the fast engine over the same
// module revision, in the same mode (timed or functional), and with the
// same memory/timing geometry as the machine that produced the snapshot.
// The snapshot itself is never mutated.
func (m *Machine) Restore(s *Snapshot) error {
	if m.eng == nil {
		return fmt.Errorf("vm: snapshots require the fast engine")
	}
	if s.eng != m.eng {
		return fmt.Errorf("vm: snapshot belongs to a different module revision")
	}
	if s.timed != m.timed {
		return fmt.Errorf("vm: %s snapshot cannot restore onto a %s machine", modeName(s.timed), modeName(m.timed))
	}
	if len(s.mem) != len(m.mem) ||
		len(s.cacheTags) != len(m.timing.cacheTags) ||
		len(s.predictor) != len(m.timing.predictor) {
		return fmt.Errorf("vm: snapshot machine geometry differs")
	}
	// Drop any previous suspended state before overwriting it; the frames
	// about to be rebuilt reuse the pool slots these release.
	for _, l := range m.susp {
		m.putFrame(l.ef, l.fr)
	}
	m.susp = m.susp[:0]
	m.resuming = nil
	m.resumePos = -1

	copy(m.mem, s.mem)
	m.sp = s.sp
	m.dyn = s.dyn
	m.laxPhis = s.laxPhis
	m.checkFails = s.checkFails
	m.perCheckFails = nil
	if s.perCheckFails != nil {
		m.perCheckFails = make(map[int]int64, len(s.perCheckFails))
		for id, n := range s.perCheckFails {
			m.perCheckFails[id] = n
		}
	}
	m.opCounts = s.opCounts
	for i, rc := range s.regionCounts {
		copy(m.regionCounts[i], rc)
	}
	if m.timed {
		tm := m.timing
		tm.cursor, tm.slotUsed, tm.maxDone = s.cursor, s.slotUsed, s.maxDone
		copy(tm.cacheTags, s.cacheTags)
		copy(tm.predictor, s.predictor)
	}

	for _, sf := range s.levels {
		fr := m.getFrame(sf.ef)
		fr.entrySP = sf.entrySP
		for j, slot := range sf.live {
			fr.bits[slot] = sf.bits[j]
			fr.defined[slot] = true
		}
		if sf.ready != nil {
			for j, slot := range sf.live {
				fr.ready[slot] = sf.ready[j]
			}
		}
		fr.live = append(fr.live[:0], sf.live...)
		m.susp = append(m.susp, suspLevel{ef: sf.ef, fr: fr, pc: sf.pc})
	}
	return nil
}

// modeName names a machine or snapshot mode in error messages.
func modeName(timed bool) string {
	if timed {
		return "timed"
	}
	return "functional"
}

// MatchesSnapshot reports whether the machine's suspended execution state
// equals the snapshot's in everything that determines how execution
// continues: memory, stack pointer, dynamic counter, the suspended call
// chain with its register bits, and check state (checkFails,
// perCheckFails, laxPhis). Timing-model state (cursor, ready times, cache
// tags, predictor) and the opcode accounting counters are not compared, on
// timed and functional machines alike: neither feeds back into values,
// control flow or traps, so a state that re-converged in value but not in
// timing or path counts still matches. A snapshot of the other mode never
// matches. When it returns true for a machine whose fault plan has already
// fired (FaultPlan.Injected), the machine's future values, control flow,
// traps and dyn are deterministically identical to those of the run the
// snapshot was taken from; the fault campaign uses this to short-circuit
// trials that have re-converged to the golden state. The comparison is
// conservative: a live set listed in a different definition order reports
// false even when the register files agree, because a false negative only
// costs the caller the shortcut, never correctness.
func (m *Machine) MatchesSnapshot(s *Snapshot) bool {
	if m.eng == nil || s.eng != m.eng || s.timed != m.timed || len(m.susp) == 0 {
		return false
	}
	if m.dyn != s.dyn || m.sp != s.sp || m.laxPhis != s.laxPhis || m.checkFails != s.checkFails {
		return false
	}
	if len(m.susp) != len(s.levels) {
		return false
	}
	for i, sf := range s.levels {
		l := m.susp[i]
		if l.ef != sf.ef || l.pc != sf.pc || l.fr.entrySP != sf.entrySP ||
			len(l.fr.live) != len(sf.live) {
			return false
		}
		for j, slot := range sf.live {
			if l.fr.live[j] != slot || l.fr.bits[slot] != sf.bits[j] {
				return false
			}
		}
	}
	if len(m.perCheckFails) != len(s.perCheckFails) {
		return false
	}
	for id, n := range s.perCheckFails {
		if m.perCheckFails[id] != n {
			return false
		}
	}
	return wordsEqual(m.mem, s.mem)
}

// wordsEqual compares two memory images as bytes, so the runtime's
// vectorized memequal does the work: on a 570 KiB image a word-by-word
// loop is about five times slower, and a converging trial pays for one
// full comparison.
func wordsEqual(a, b []uint64) bool {
	return len(a) == len(b) && bytes.Equal(wordBytes(a), wordBytes(b))
}

// wordBytes views a word slice as its in-memory bytes, without copying.
func wordBytes(w []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
}

// resumeExec continues a suspended (or freshly restored) run: the captured
// call chain is rebuilt on the Go stack, outermost level first, and
// execution rejoins the dispatch loop at the suspend point. Called by Run
// when the machine holds suspended state.
func (m *Machine) resumeExec() (uint64, *Trap) {
	m.resuming = m.susp
	m.susp = nil
	m.resumePos = len(m.resuming) - 1
	ret, trap := m.execResumeNext(0)
	m.resuming = nil
	m.resumePos = -1
	return ret, trap
}

// execResumeNext re-enters the next pending level of the suspended chain:
// the counterpart of execCall whose activation record and starting pc come
// from the captured state instead of a fresh frame. On a new suspension the
// frame ownership returns to m.susp (via execLoopFrom) rather than the pool.
func (m *Machine) execResumeNext(depth int) (uint64, *Trap) {
	lvl := m.resuming[m.resumePos]
	m.resumePos--
	ret, trap := m.execLoopFrom(lvl.ef, lvl.fr, depth, lvl.pc)
	if trap != nil && trap.Kind == TrapSuspended {
		return 0, trap
	}
	m.sp = lvl.fr.entrySP
	m.putFrame(lvl.ef, lvl.fr)
	return ret, trap
}
