package tagpipe

import (
	"fmt"
	"strings"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/oracle"
	"shift/internal/shadow"
	"shift/internal/taint"
)

// regShadow is one thread's shadow taint state.
type regShadow struct {
	taint [isa.NumGR]bool
	ccv   bool
}

// state is the committed shadow taint state the pipeline maintains
// asynchronously. Only the committer mutates it while records are in
// flight; the producer reads and mutates it directly at synchronization
// points (sink drains, host effects), after the drain's happens-before
// edge has been established.
type state struct {
	mem     *shadow.Memory
	threads map[int32]*regShadow
	// checking mirrors the oracle's strong-check soundness: it drops
	// when a second thread spawns under UnsafePreempt (the §4.4 window
	// really is observable there). Transitions happen only at drains,
	// so the committer always sees a value consistent with the records
	// it is applying.
	checking bool
	// concurrent latches once checking has stood down; it never comes
	// back within a run (mirroring the oracle's latch).
	concurrent bool
}

func newState(cfg Config) *state {
	gran := taint.Byte
	if cfg.Tags != nil {
		gran = cfg.Tags.Gran
	}
	return &state{
		mem:      shadow.New(gran),
		threads:  make(map[int32]*regShadow),
		checking: cfg.Instrumented && cfg.Tags != nil,
	}
}

// regs returns (creating on first use) the shadow for a thread.
func (st *state) regs(tid int32) *regShadow {
	rs := st.threads[tid]
	if rs == nil {
		rs = &regShadow{}
		st.threads[tid] = rs
	}
	return rs
}

// setReg writes a register's shadow taint, preserving r0 == clean.
func (rs *regShadow) set(r uint8, t bool) {
	if r == isa.RegZero {
		return
	}
	rs.taint[r] = t
}

// div builds a divergence for a record, reusing the oracle's report
// type so inline and decoupled findings read identically.
func div(r *rec, kind oracle.DivergenceKind, reg uint8, mach, shadow bool) *oracle.Divergence {
	return &oracle.Divergence{
		Kind:    kind,
		TID:     int(r.tid),
		PC:      int(r.pc),
		Ins:     r.op.Name(),
		Reg:     reg,
		Machine: mach,
		Shadow:  shadow,
	}
}

// applyRec interprets one record against the shadow state — the
// reference consumer, byte-for-byte the oracle's propagation rules.
// It returns the first divergence the record exposes: a broken
// mechanical NaT rule (always checked), or a NaT token on an
// original-program register the shadow cannot account for (checked only
// while the strong checks are sound).
func (st *state) applyRec(r *rec) *oracle.Divergence {
	rs := st.regs(r.tid)
	natAfter := r.flags&fNatAfter != 0
	switch r.kind {
	case rUnion2:
		rs.set(r.dest, rs.taint[r.s1] || rs.taint[r.s2])
	case rCopy:
		rs.set(r.dest, rs.taint[r.s1])
	case rClear:
		rs.set(r.dest, false)
	case rLoad:
		if r.dest != isa.RegZero && natAfter {
			return div(r, oracle.DivNaTRule, r.dest, true, false)
		}
		rs.set(r.dest, st.mem.Load(r.addr, int(r.size)))
	case rLoadSpec:
		deferred := r.flags&fDeferred != 0
		if r.dest != isa.RegZero && natAfter != deferred {
			return div(r, oracle.DivNaTRule, r.dest, natAfter, deferred)
		}
		// Deferral token == taint under the one-bit encoding (see the
		// oracle's OpLdS rule); keeps NaT/taint equality checks exact.
		t := true
		if !deferred {
			t = st.mem.Load(r.addr, int(r.size))
		}
		rs.set(r.dest, t)
	case rLoadFill:
		rs.set(r.dest, st.mem.Load(r.addr, 8))
	case rStore:
		st.mem.Set(r.addr, int(r.size), rs.taint[r.s2], r.flags&fAuth != 0)
	case rCmpxchg:
		if r.dest != isa.RegZero && natAfter {
			return div(r, oracle.DivNaTRule, r.dest, true, false)
		}
		old := st.mem.Load(r.addr, int(r.size))
		if r.flags&fCommitted != 0 {
			st.mem.Set(r.addr, int(r.size), rs.taint[r.s2], r.flags&fAuth != 0)
		}
		rs.set(r.dest, old)
	case rCcvSet:
		rs.ccv = rs.taint[r.s1]
	case rCcvGet:
		rs.set(r.dest, rs.ccv)
	case rNatOnly:
		// No taint flow; the suspect check below is the whole point.
	}
	if st.checking && natAfter &&
		r.dest >= 1 && r.dest < oracle.FirstReservedReg && !rs.taint[r.dest] {
		return div(r, oracle.DivRegister, r.dest, true, false)
	}
	return nil
}

// flushCheck is the sink-boundary register sweep: every original-program
// register's NaT bit must equal the shadow, skipping the register the
// sink instruction itself writes (its instrumentation block is still
// open, exactly as at the oracle's boundaries).
func (st *state) flushCheck(m *machine.Machine, ins string, skip int, stats *Stats) *oracle.Divergence {
	rs := st.regs(int32(m.TID))
	for r := 1; r < oracle.FirstReservedReg; r++ {
		if r == skip {
			continue
		}
		stats.RegChecks.Add(1)
		if m.NaT[r] != rs.taint[r] {
			return &oracle.Divergence{
				Kind: oracle.DivRegister, TID: m.TID, PC: m.PC, Ins: ins,
				Reg: uint8(r), Machine: m.NaT[r], Shadow: rs.taint[r],
			}
		}
	}
	return nil
}

// sweep cross-checks every non-hidden unit the shadow knows about
// against the bitmap, in address order.
func (st *state) sweep(tags *taint.Space, m *machine.Machine, ins string, stats *Stats) *oracle.Divergence {
	stats.Sweeps.Add(1)
	checks, mm, found := st.mem.Sweep(tags)
	stats.UnitChecks.Add(checks)
	if found {
		return &oracle.Divergence{
			Kind: oracle.DivBitmap, TID: m.TID, PC: m.PC, Ins: ins,
			Addr: mm.Addr, Machine: mm.Bitmap, Shadow: mm.Shadow,
		}
	}
	return nil
}

// snapshot renders the shadow state for a divergence report.
func (st *state) snapshot(m *machine.Machine) string {
	var b strings.Builder
	rs := st.regs(int32(m.TID))
	fmt.Fprintf(&b, "  tid=%d pc=%d retired=%d cycles=%d halted=%v (decoupled; detection is sink-granular)\n",
		m.TID, m.PC, m.Retired, m.Cycles, m.Halted)
	for r := 0; r < isa.NumGR; r++ {
		if m.GR[r] == 0 && !m.NaT[r] && !rs.taint[r] {
			continue
		}
		fmt.Fprintf(&b, "  r%-3d = %#-18x nat=%-5v shadow=%v\n", r, uint64(m.GR[r]), m.NaT[r], rs.taint[r])
	}
	return b.String()
}
