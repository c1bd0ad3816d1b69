package oracle

import (
	"shift/internal/isa"
	"shift/internal/machine"
)

// destGR returns the general register an opcode writes, if any. setnat
// and clrnat count: they write the register's NaT bit.
func destGR(ins *isa.Instruction) (uint8, bool) {
	switch ins.Op {
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpAndcm, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpShli, isa.OpShri, isa.OpSari,
		isa.OpMov, isa.OpMovl, isa.OpLd, isa.OpLdS, isa.OpLdFill, isa.OpCmpxchg,
		isa.OpMovFromBr, isa.OpMovFromUnat, isa.OpMovFromCcv,
		isa.OpSetNat, isa.OpClrNat:
		return ins.Dest, true
	case isa.OpSyscall:
		// The OS model's return-value convention.
		return isa.RegRet, true
	}
	return 0, false
}

// PreStep implements machine.StepHook: capture the pre-state the
// post-retirement interpretation needs (effective addresses and compare
// values may be overwritten by the instruction itself).
func (o *Oracle) PreStep(m *machine.Machine, ins *isa.Instruction) {
	rs := o.regs(m.TID)
	rs.squashed = ins.Qp != 0 && !m.PR[ins.Qp]
	if rs.squashed {
		return
	}
	switch ins.Op {
	case isa.OpLd, isa.OpSt, isa.OpStSpill, isa.OpLdFill:
		rs.addr = uint64(m.GR[ins.Src1])
	case isa.OpLdS:
		rs.addr = uint64(m.GR[ins.Src1])
		// Recompute the defer decision independently of the machine: a
		// speculative load defers exactly when its address register
		// carries a token or the access itself would fault.
		rs.deferred = m.NaT[ins.Src1] || m.Mem.CheckAccess(rs.addr, int(ins.Size)) != nil
	case isa.OpCmpxchg:
		rs.addr = uint64(m.GR[ins.Src1])
		rs.ccvPre = m.CCV
		// Peek the old value here: Dest may be r0, which discards it.
		rs.xchgOld = 0
		for i := 0; i < int(ins.Size); i++ {
			b, fault := m.Mem.Peek(rs.addr + uint64(i))
			if fault != nil {
				break // the access will trap; PostStep never runs
			}
			rs.xchgOld |= uint64(b) << (8 * i)
		}
	case isa.OpSyscall:
		rs.r8 = m.GR[isa.RegRet]
		rs.r8NaT = m.NaT[isa.RegRet]
	}
}

// authoritative reports whether a store is one the instrumentation pass
// follows with a tag-bitmap update: an original-program store in an
// instrumented build. ABI register-preservation stores and
// instrumentation-emitted stores (red-zone spills, tag-byte writes)
// bypass the bitmap by design.
func (o *Oracle) authoritative(ins *isa.Instruction) bool {
	return o.cfg.Instrumented && !ins.ABI && ins.Class == isa.ClassOrig
}

// setReg writes a register's shadow taint, preserving r0 == clean.
func setReg(rs *regShadow, r uint8, t bool) {
	if r == isa.RegZero {
		return
	}
	rs.taint[r] = t
}

// PostStep implements machine.StepHook: run the boundary cross-checks,
// then interpret the retired instruction against the shadow state, then
// check the mechanical NaT rules for the written register.
func (o *Oracle) PostStep(m *machine.Machine, ins *isa.Instruction) error {
	o.Stats.Steps++
	rs := o.regs(m.TID)

	// An original instruction marks the previous instrumentation block
	// complete: queued tag-update checks and the register NaT-vs-shadow
	// sweep are sound here. The register this instruction just wrote is
	// skipped — its own block (the taint add after a load) is still
	// open — and is covered at the next boundary.
	if o.checking() && ins.Class == isa.ClassOrig {
		skip := -1
		if d, ok := destGR(ins); ok {
			skip = int(d)
		}
		if err := o.flush(m, ins, skip); err != nil {
			return err
		}
		if ins.Op == isa.OpSyscall && !rs.squashed {
			// Syscall boundary: the OS model has read guest memory and
			// mirrored its writes; the whole visible bitmap must agree.
			if err := o.sweep(m, ins); err != nil {
				return err
			}
		}
	}
	if rs.squashed {
		return nil
	}

	switch ins.Op {
	case isa.OpAdd, isa.OpAnd, isa.OpAndcm, isa.OpOr,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpDiv, isa.OpRem:
		setReg(rs, ins.Dest, rs.taint[ins.Src1] || rs.taint[ins.Src2])

	case isa.OpSub, isa.OpXor:
		// Self-clearing idioms: the result is data-independent.
		t := false
		if ins.Src1 != ins.Src2 {
			t = rs.taint[ins.Src1] || rs.taint[ins.Src2]
		}
		setReg(rs, ins.Dest, t)

	case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpShli, isa.OpShri, isa.OpSari, isa.OpMov:
		setReg(rs, ins.Dest, rs.taint[ins.Src1])

	case isa.OpMovl:
		setReg(rs, ins.Dest, false)

	case isa.OpLd:
		// A plain load always clears NaT — the stripping behaviour
		// SHIFT builds its laundering on. Check the rule held.
		if ins.Dest != isa.RegZero && m.NaT[ins.Dest] {
			return o.fail(m, ins, Divergence{Kind: DivNaTRule, Reg: ins.Dest, Machine: true, Shadow: false})
		}
		setReg(rs, ins.Dest, o.mem.Load(rs.addr, int(ins.Size)))

	case isa.OpLdS:
		if ins.Dest != isa.RegZero && m.NaT[ins.Dest] != rs.deferred {
			return o.fail(m, ins, Divergence{Kind: DivNaTRule, Reg: ins.Dest, Machine: m.NaT[ins.Dest], Shadow: rs.deferred})
		}
		// A deferred load manufactures a NaT token instead of data.
		// SHIFT's one-bit encoding cannot tell that token apart from
		// taint, so the shadow calls it tainted: the boundary check
		// (NaT == taint) stays an equality, and a chk.s-less consume of
		// the deferral is flagged exactly like a taint consume.
		t := true
		if !rs.deferred {
			t = o.mem.Load(rs.addr, int(ins.Size))
		}
		setReg(rs, ins.Dest, t)

	case isa.OpLdFill:
		// The fill's NaT comes from UNAT, which the oracle deliberately
		// does not model; taint comes straight from the spilled unit.
		setReg(rs, ins.Dest, o.mem.Load(rs.addr, 8))

	case isa.OpSt:
		o.setMem(rs.addr, int(ins.Size), rs.taint[ins.Src2], o.authoritative(ins))

	case isa.OpStSpill:
		o.setMem(rs.addr, 8, rs.taint[ins.Src2], o.authoritative(ins))

	case isa.OpCmpxchg:
		if ins.Dest != isa.RegZero && m.NaT[ins.Dest] {
			return o.fail(m, ins, Divergence{Kind: DivNaTRule, Reg: ins.Dest, Machine: true, Shadow: false})
		}
		// A cmpxchg is a load of the old value and, when the compare
		// succeeds, a store of the new one: the destination inherits the
		// location's old taint, and a committed exchange propagates the
		// data's taint into memory. The instrumentation pass now follows
		// an original cmpxchg with a tag-update sequence (closing the
		// paper's §4.4 gap), so the units are checked against the bitmap
		// like any store's.
		old := o.mem.Load(rs.addr, int(ins.Size))
		if rs.xchgOld == rs.ccvPre {
			o.setMem(rs.addr, int(ins.Size), rs.taint[ins.Src2], o.authoritative(ins))
		}
		setReg(rs, ins.Dest, old)

	case isa.OpMovFromBr, isa.OpMovFromUnat:
		// Branch registers can never hold tainted data (mov-to-br
		// traps on NaT) and UNAT is tag metadata, not data.
		setReg(rs, ins.Dest, false)

	case isa.OpMovToCcv:
		rs.ccv = rs.taint[ins.Src1]

	case isa.OpMovFromCcv:
		setReg(rs, ins.Dest, rs.ccv)

	case isa.OpSyscall:
		// The OS wrote its result (if any) through r8 with NaT clear;
		// host data is clean unless a source marked it, which arrives
		// via HostTaint. A syscall that left r8 alone preserves taint.
		if m.GR[isa.RegRet] != rs.r8 || m.NaT[isa.RegRet] != rs.r8NaT {
			rs.taint[isa.RegRet] = false
		}

	case isa.OpSetNat, isa.OpClrNat:
		// Pure NaT manipulation: no data flows, so no shadow change.
		// The NaT-implies-taint check below still applies to setnat on
		// an original register.
	}

	// No original-program register may carry a NaT token the shadow
	// cannot account for. This is the per-instruction direction of the
	// register cross-check; full equality holds only at boundaries.
	if o.checking() {
		if d, ok := destGR(ins); ok && d >= 1 && d < FirstReservedReg && m.NaT[d] && !rs.taint[d] {
			return o.fail(m, ins, Divergence{Kind: DivRegister, Reg: d, Machine: true, Shadow: false})
		}
	}
	return nil
}
