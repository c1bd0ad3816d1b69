package oracle

import (
	"shift/internal/isa"
	"shift/internal/machine"
)

// RecKind is the semantic class of one taint record. The encoder
// resolves each retired instruction into one of these, so the
// interpreter (State.Apply) never re-decodes opcodes: a record is the
// instruction's taint-transfer function plus the pre-state it needs
// (effective address, defer decision, commit outcome), flattened into a
// fixed-size struct. The checker applies a record the moment it is
// encoded.
type RecKind uint8

const (
	// RecUnion2: dest's taint becomes taint(s1) | taint(s2) (two-source
	// ALU ops; the self-clearing xor/sub idiom encodes as RecClear).
	RecUnion2 RecKind = iota
	// RecCopy: dest's taint becomes taint(s1) (immediate ALU forms, mov).
	RecCopy
	// RecClear: dest's taint becomes clean (movl, mov-from-br/unat,
	// self-clearing xor/sub).
	RecClear
	// RecLoad: a plain load; dest's taint is the OR over the accessed
	// units. FlagNatAfter feeds the mechanical rule check (a plain load
	// must leave NaT clear).
	RecLoad
	// RecLoadSpec: a speculative load; FlagDeferred carries the
	// encoder's independent recomputation of the defer decision,
	// FlagNatAfter what the machine actually did.
	RecLoadSpec
	// RecLoadFill: ld8.fill; taint comes straight from the spilled unit.
	// The fill's NaT comes from UNAT, which is deliberately not modelled.
	RecLoadFill
	// RecStore: st/st8.spill; the accessed units take taint(s2). FlagAuth
	// marks an authoritative store (see Encoder.Instrumented).
	RecStore
	// RecCmpxchg: dest takes the location's old taint; when
	// FlagCommitted is set the exchange also stores taint(s2).
	RecCmpxchg
	// RecCcvSet / RecCcvGet: the ar.ccv shadow taint.
	RecCcvSet
	RecCcvGet
	// RecNatOnly: no taint flow (setnat/clrnat); the record exists only
	// so the NaT-implies-taint check runs for the written register.
	RecNatOnly
	// RecSyscall: the OS model's result convention on r8 (Dest).
	// FlagR8Written says the call changed r8's value or NaT bit.
	RecSyscall
)

// Record flags.
const (
	FlagNatAfter  uint8 = 1 << iota // machine NaT bit of dest after retirement
	FlagDeferred                    // ld.s: recomputed defer decision
	FlagCommitted                   // cmpxchg: the compare matched, the store happened
	FlagAuth                        // store is authoritative (tag-update expected)
	FlagR8Written                   // syscall: the OS wrote r8
)

// Rec is one taint record: 24 bytes, no pointers.
type Rec struct {
	Kind  RecKind
	Op    isa.Opcode // for divergence reports only
	Flags uint8
	Dest  uint8
	S1    uint8
	S2    uint8
	Size  uint8
	_     uint8
	TID   int32
	PC    int32
	Addr  uint64 // effective address (memory kinds)
}

// WritesDest reports whether the record's kind writes general register
// Dest (stores and mov-to-ccv write none).
func (r *Rec) WritesDest() bool { return r.Kind != RecStore && r.Kind != RecCcvSet }

// Encoder turns retired instructions into records: Capture runs at
// PreStep, Encode at PostStep. One encoder serves every thread, because
// each thread is its own machine and nothing retires between one
// instruction's PreStep and its PostStep.
type Encoder struct {
	// Instrumented marks original-program stores authoritative: in an
	// instrumented build the pass follows each of them with a tag-bitmap
	// update. ABI register-preservation stores and instrumentation-
	// emitted stores (red-zone spills, tag-byte writes) bypass the bitmap
	// by design.
	Instrumented bool

	// Pre-state of the instruction in flight.
	squashed bool
	addr     uint64
	deferred bool
	ccvPre   uint64
	xchgOld  uint64 // memory word a cmpxchg saw (Dest may be r0)
	r8       int64
	r8NaT    bool
}

// Capture records the pre-state the record needs: effective addresses
// and compare values may be overwritten by the instruction itself.
func (e *Encoder) Capture(m *machine.Machine, ins *isa.Instruction) {
	e.squashed = ins.Qp != 0 && !m.PR[ins.Qp]
	if e.squashed {
		return
	}
	switch ins.Op {
	case isa.OpLd, isa.OpSt, isa.OpStSpill, isa.OpLdFill:
		e.addr = uint64(m.GR[ins.Src1])
	case isa.OpLdS:
		e.addr = uint64(m.GR[ins.Src1])
		// Recompute the defer decision independently of the machine: a
		// speculative load defers exactly when its address register
		// carries a token or the access itself would fault.
		e.deferred = m.NaT[ins.Src1] || m.Mem.CheckAccess(e.addr, int(ins.Size)) != nil
	case isa.OpCmpxchg:
		e.addr = uint64(m.GR[ins.Src1])
		e.ccvPre = m.CCV
		// Peek the old value here: Dest may be r0, which discards it.
		e.xchgOld = 0
		for i := 0; i < int(ins.Size); i++ {
			b, fault := m.Mem.Peek(e.addr + uint64(i))
			if fault != nil {
				break // the access will trap; PostStep never runs
			}
			e.xchgOld |= uint64(b) << (8 * i)
		}
	case isa.OpSyscall:
		e.r8 = m.GR[isa.RegRet]
		e.r8NaT = m.NaT[isa.RegRet]
	}
}

// Squashed reports whether the instruction in flight was predicated off:
// it retired without effect, so it has no taint flow to apply.
func (e *Encoder) Squashed() bool { return e.squashed }

// Encode resolves the retired instruction into the record at r. It
// reports false, leaving r untouched, for instructions with no taint
// flow and no written general register (branches, compares, tnat, chk.s,
// nop). It does not consult Squashed: a caller that applies the record
// checks that first. Fields are stored one by one, straight into r, so
// a checker encodes into its one reused record without a struct copy.
func (e *Encoder) Encode(m *machine.Machine, ins *isa.Instruction, r *Rec) bool {
	var kind RecKind
	var flags uint8
	dest, size := ins.Dest, ins.Size
	switch ins.Op {
	case isa.OpAdd, isa.OpAnd, isa.OpAndcm, isa.OpOr,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpDiv, isa.OpRem:
		kind = RecUnion2

	case isa.OpSub, isa.OpXor:
		// Self-clearing idioms: the result is data-independent.
		if ins.Src1 == ins.Src2 {
			kind = RecClear
		} else {
			kind = RecUnion2
		}

	case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpShli, isa.OpShri, isa.OpSari, isa.OpMov:
		kind = RecCopy

	case isa.OpMovl, isa.OpMovFromBr, isa.OpMovFromUnat:
		// Branch registers can never hold tainted data (mov-to-br traps
		// on NaT) and UNAT is tag metadata, not data.
		kind = RecClear

	case isa.OpLd:
		kind = RecLoad

	case isa.OpLdS:
		kind = RecLoadSpec
		if e.deferred {
			flags |= FlagDeferred
		}

	case isa.OpLdFill:
		kind, size = RecLoadFill, 8

	case isa.OpSt:
		kind = RecStore

	case isa.OpStSpill:
		kind, size = RecStore, 8

	case isa.OpCmpxchg:
		kind = RecCmpxchg
		if e.xchgOld == e.ccvPre {
			flags |= FlagCommitted
		}

	case isa.OpMovToCcv:
		kind = RecCcvSet

	case isa.OpMovFromCcv:
		kind = RecCcvGet

	case isa.OpSetNat, isa.OpClrNat:
		kind = RecNatOnly

	case isa.OpSyscall:
		kind, dest = RecSyscall, isa.RegRet
		if m.GR[isa.RegRet] != e.r8 || m.NaT[isa.RegRet] != e.r8NaT {
			flags |= FlagR8Written
		}

	default:
		return false
	}
	if (kind == RecStore || kind == RecCmpxchg) &&
		e.Instrumented && !ins.ABI && ins.Class == isa.ClassOrig {
		flags |= FlagAuth
	}
	r.Kind = kind
	if r.WritesDest() && dest != isa.RegZero && m.NaT[dest] {
		flags |= FlagNatAfter
	}
	r.Op = ins.Op
	r.Flags = flags
	r.Dest = dest
	r.S1 = ins.Src1
	r.S2 = ins.Src2
	r.Size = size
	r.TID = int32(m.TID)
	r.PC = int32(m.PC)
	r.Addr = e.addr
	return true
}
