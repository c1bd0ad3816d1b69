package oracle

import (
	"fmt"
	"strings"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/shadow"
	"shift/internal/taint"
)

// regShadow is one thread's register taint state.
type regShadow struct {
	taint [isa.NumGR]bool
	// ccv is the shadow taint of the ar.ccv compare value.
	ccv bool
}

// State is the reference shadow taint state — an explicit taint bit per
// general register (per thread) and per tracked memory unit — and the
// one interpreter of taint records. A Checker runs on it and applies
// each record as it is encoded. The checks that compare State against
// the machine's tag state (CheckRegs, Sweep) live here too; the
// checker's Granularity decides when they run.
type State struct {
	cfg     Config
	mem     *shadow.Memory
	threads map[int32]*regShadow
	// strong reports whether the strong (tag-state vs shadow) checks are
	// sound: the build is instrumented, a bitmap exists, and no second
	// thread has spawned under Config.UnsafePreempt. Only then are the
	// store-to-tag-update windows of one thread observable by the others
	// (the §4.4 atomicity gap), making bitmap and register-equality
	// checks unsound; tag-coherent scheduling (the default) keeps them up.
	strong bool
}

// NewState builds an empty shadow state for cfg.
func NewState(cfg Config) *State {
	gran := taint.Byte
	if cfg.Tags != nil {
		gran = cfg.Tags.Gran
	}
	return &State{
		cfg:     cfg,
		mem:     shadow.New(gran),
		threads: make(map[int32]*regShadow),
		strong:  cfg.Instrumented && cfg.Tags != nil,
	}
}

// Checking reports whether the strong cross-checks are sound right now.
func (st *State) Checking() bool { return st.strong }

// regs returns (creating on first use) the shadow for a thread.
func (st *State) regs(tid int32) *regShadow {
	rs := st.threads[tid]
	if rs == nil {
		rs = &regShadow{}
		st.threads[tid] = rs
	}
	return rs
}

// set writes a register's shadow taint, preserving r0 == clean.
func (rs *regShadow) set(r uint8, t bool) {
	if r == isa.RegZero {
		return
	}
	rs.taint[r] = t
}

// recDivergence reports a divergence one record exposed. Ins is the
// opcode name; the checker, which still holds the instruction, replaces
// it with the disassembly.
func recDivergence(r *Rec, kind DivergenceKind, reg uint8, mach, shadow bool) *Divergence {
	return &Divergence{
		Kind:    kind,
		TID:     int(r.TID),
		PC:      int(r.PC),
		Ins:     r.Op.Name(),
		Reg:     reg,
		Machine: mach,
		Shadow:  shadow,
	}
}

// Apply interprets one record against the shadow state: these are the
// taint transfer rules, defined nowhere else. It returns the first
// divergence the record exposes: a broken mechanical NaT rule (always
// checked), or a NaT token on an original-program register the shadow
// cannot account for (checked only while the strong checks are sound).
func (st *State) Apply(r *Rec) *Divergence {
	rs := st.regs(r.TID)
	natAfter := r.Flags&FlagNatAfter != 0
	switch r.Kind {
	case RecUnion2:
		rs.set(r.Dest, rs.taint[r.S1] || rs.taint[r.S2])
	case RecCopy:
		rs.set(r.Dest, rs.taint[r.S1])
	case RecClear:
		rs.set(r.Dest, false)
	case RecLoad:
		// A plain load always clears NaT — the stripping behaviour SHIFT
		// builds its laundering on. Check the rule held.
		if r.Dest != isa.RegZero && natAfter {
			return recDivergence(r, DivNaTRule, r.Dest, true, false)
		}
		rs.set(r.Dest, st.mem.Load(r.Addr, int(r.Size)))
	case RecLoadSpec:
		deferred := r.Flags&FlagDeferred != 0
		if r.Dest != isa.RegZero && natAfter != deferred {
			return recDivergence(r, DivNaTRule, r.Dest, natAfter, deferred)
		}
		// A deferred load manufactures a NaT token instead of data.
		// SHIFT's one-bit encoding cannot tell that token apart from
		// taint, so the shadow calls it tainted: the boundary check
		// (NaT == taint) stays an equality, and a chk.s-less consume of
		// the deferral is flagged exactly like a taint consume.
		t := true
		if !deferred {
			t = st.mem.Load(r.Addr, int(r.Size))
		}
		rs.set(r.Dest, t)
	case RecLoadFill:
		rs.set(r.Dest, st.mem.Load(r.Addr, 8))
	case RecStore:
		st.mem.Set(r.Addr, int(r.Size), rs.taint[r.S2], r.Flags&FlagAuth != 0)
	case RecCmpxchg:
		if r.Dest != isa.RegZero && natAfter {
			return recDivergence(r, DivNaTRule, r.Dest, true, false)
		}
		// A cmpxchg is a load of the old value and, when the compare
		// succeeds, a store of the new one: the destination inherits the
		// location's old taint, and a committed exchange propagates the
		// data's taint into memory. The instrumentation pass follows an
		// original cmpxchg with a tag-update sequence (closing the
		// paper's §4.4 gap), so its units are checked like any store's.
		old := st.mem.Load(r.Addr, int(r.Size))
		if r.Flags&FlagCommitted != 0 {
			st.mem.Set(r.Addr, int(r.Size), rs.taint[r.S2], r.Flags&FlagAuth != 0)
		}
		rs.set(r.Dest, old)
	case RecCcvSet:
		rs.ccv = rs.taint[r.S1]
	case RecCcvGet:
		rs.set(r.Dest, rs.ccv)
	case RecNatOnly:
		// Pure NaT manipulation: no data flows, so no shadow change. The
		// NaT-implies-taint check below still applies.
	case RecSyscall:
		// The OS wrote its result (if any) through r8 with NaT clear;
		// host data is clean unless a source marked it, which arrives
		// via HostTaint. A syscall that left r8 alone preserves taint.
		if r.Flags&FlagR8Written != 0 {
			rs.set(r.Dest, false)
		}
	}
	// No original-program register may carry a NaT token the shadow
	// cannot account for. This is the per-record direction of the
	// register cross-check; full equality holds only at boundaries.
	if st.strong && natAfter &&
		r.Dest >= 1 && r.Dest < firstReservedReg && !rs.taint[r.Dest] {
		return recDivergence(r, DivRegister, r.Dest, true, false)
	}
	return nil
}

// CheckRegs is the register cross-check: every original-program
// register's NaT bit must equal the shadow, skipping register skip (the
// current instruction just wrote it and its instrumentation block is
// still open). It returns the number of registers compared and the first
// disagreement, whose Ins the caller fills in.
func (st *State) CheckRegs(m *machine.Machine, skip int) (uint64, *Divergence) {
	rs := st.regs(int32(m.TID))
	var n uint64
	for r := 1; r < firstReservedReg; r++ {
		if r == skip {
			continue
		}
		n++
		if m.NaT[r] != rs.taint[r] {
			return n, &Divergence{Kind: DivRegister, TID: m.TID, PC: m.PC,
				Reg: uint8(r), Machine: m.NaT[r], Shadow: rs.taint[r]}
		}
	}
	return n, nil
}

// Sweep cross-checks every non-hidden unit the shadow knows about
// against the bitmap, in address order. It returns the number of units
// compared and the first disagreement, whose Ins the caller fills in.
func (st *State) Sweep(m *machine.Machine) (uint64, *Divergence) {
	checks, mm, found := st.mem.Sweep(st.cfg.Tags)
	if !found {
		return checks, nil
	}
	return checks, &Divergence{Kind: DivBitmap, TID: m.TID, PC: m.PC,
		Addr: mm.Addr, Machine: mm.Bitmap, Shadow: mm.Shadow}
}

// WriteRegs renders every register of m's thread that is non-zero,
// NaT'd or shadow-tainted, one per line, for a divergence snapshot.
func (st *State) WriteRegs(b *strings.Builder, m *machine.Machine) {
	rs := st.regs(int32(m.TID))
	for r := 0; r < isa.NumGR; r++ {
		if m.GR[r] == 0 && !m.NaT[r] && !rs.taint[r] {
			continue
		}
		fmt.Fprintf(b, "  r%-3d = %#-18x nat=%-5v shadow=%v\n", r, uint64(m.GR[r]), m.NaT[r], rs.taint[r])
	}
}

// The methods below mirror the OS model's direct effects on guest state
// into the shadow (Checker wraps each as a sink), so the next sweep can
// cross-check the bitmap's view of them.

// HostWrite records that the OS wrote n bytes of host data at addr
// (read(2)-style transfers, getarg strings). SHIFT's OS model leaves
// tags sticky — a host write never changes the bitmap, and explicit
// sources arrive separately via HostTaint — so the shadow keeps its own
// taint for the touched units and the syscall-boundary sweep verifies
// the bitmap really did stay put. A unit whose last writer bypassed the
// bitmap by design (a spill slot) loses that exemption the moment the
// OS overwrites it: its bitmap bit is adopted once, and from then on it
// is checked like any other unit.
func (st *State) HostWrite(addr uint64, n int) {
	st.mem.HostWrite(st.cfg.Tags, addr, n)
}

// HostTaint records that the OS marked [addr, addr+n) as a taint source.
func (st *State) HostTaint(addr, n uint64) { st.mem.HostTaint(addr, n) }

// HostUntaint records that the OS explicitly cleared tags over
// [addr, addr+n) (the taint-control syscall).
func (st *State) HostUntaint(addr, n uint64) { st.mem.HostUntaint(addr, n) }

// OnSpawn records a thread creation. The child inherits the taint of its
// argument register from the parent's argument slot. Under the default
// tag-coherent scheduling, every instrumentation block retires whole
// before a sibling thread runs, so the strong cross-checks remain sound
// in fully multithreaded runs and nothing stands down. Only under
// Config.UnsafePreempt — where a slice may end inside a
// store-to-tag-update window (the §4.4 atomicity gap under study) — do
// bitmap and register-equality comparisons stop from the first spawn
// onward, leaving the thread-local NaT-rule checks.
func (st *State) OnSpawn(parentTID, childTID int) {
	parent := st.regs(int32(parentTID))
	child := st.regs(int32(childTID))
	child.taint[isa.RegArg0] = parent.taint[isa.RegArg0+1]
	if st.cfg.UnsafePreempt {
		st.strong = false
	}
}
