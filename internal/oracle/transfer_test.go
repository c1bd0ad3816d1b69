package oracle

import (
	"testing"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/mem"
	"shift/internal/taint"
)

// r8OS is a minimal OS model: syscall 1 writes a result to r8, any other
// number leaves r8 alone.
type r8OS struct{}

func (r8OS) Syscall(m *machine.Machine, num int64) (uint64, *machine.Trap) {
	if num == 1 {
		m.GR[isa.RegRet] = 99
	}
	return 0, nil
}

// unitWant is the expected shadow state of the byte unit at dataAddr+off.
type unitWant struct {
	off           uint64
	taint, hidden bool
}

// transferCase is one row of the rule table. Registers: r1 holds
// dataAddr (shadow-clean), r2 and r4 are data sources, r3 the usual
// destination, r5 an address register set up by mach.
type transferCase struct {
	name  string
	cfg   Config
	text  []isa.Instruction
	taint []uint8   // registers shadow-tainted before the run
	mem   [2]uint64 // [offset, length] from dataAddr host-tainted before the run
	ccv   bool      // ar.ccv shadow-tainted before the run
	mach  func(m *machine.Machine)
	regs  map[uint8]bool // expected register shadow taint after the run
	units []unitWant
}

// TestTransferRules pins every taint transfer rule to hand-written
// expectations. Each row runs real instructions through the encoder and
// State.Apply (the oracle's PostStep) from a chosen shadow state, then
// compares the resulting shadow taint with the table, which is written
// out literally rather than computed. Both checkers share these rules,
// so the oracle-vs-sink-checker suites cannot catch a wrong rule; this
// table can.
func TestTransferRules(t *testing.T) {
	inst := Config{Instrumented: true}
	unmapped := mem.Addr(5, 0x40) // region 5 is not mapped
	st8 := func(class isa.CostClass, abi bool) []isa.Instruction {
		return []isa.Instruction{{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8, Class: class, ABI: abi}}
	}
	add := isa.Instruction{Op: isa.OpAdd, Dest: 3, Src1: 2, Src2: 4}
	cmpxchg := []isa.Instruction{{Op: isa.OpCmpxchg, Dest: 3, Src1: 1, Src2: 2, Size: 8}}
	committed := func(m *machine.Machine) { m.CCV = 0 }   // memory holds 0
	uncommitted := func(m *machine.Machine) { m.CCV = 1 } // compare fails

	cases := []transferCase{
		// Two-source union: every combination of source taints, the
		// destination starting out opposite to the expected result.
		{name: "union/clean+clean", text: []isa.Instruction{add}, taint: []uint8{3}, regs: map[uint8]bool{3: false}},
		{name: "union/tainted+clean", text: []isa.Instruction{add}, taint: []uint8{2}, regs: map[uint8]bool{3: true}},
		{name: "union/clean+tainted", text: []isa.Instruction{add}, taint: []uint8{4}, regs: map[uint8]bool{3: true}},
		{name: "union/tainted+tainted", text: []isa.Instruction{add}, taint: []uint8{2, 4}, regs: map[uint8]bool{3: true, 2: true, 4: true}},
		{name: "union/predicated-off", text: []isa.Instruction{{Op: isa.OpAdd, Qp: 1, Dest: 3, Src1: 2, Src2: 4}}, taint: []uint8{2}, regs: map[uint8]bool{3: false}},

		// Self-clearing idioms: the result does not depend on the data.
		{name: "xor/self-clears", text: []isa.Instruction{{Op: isa.OpXor, Dest: 3, Src1: 2, Src2: 2}}, taint: []uint8{2, 3}, regs: map[uint8]bool{3: false}},
		{name: "sub/self-clears", text: []isa.Instruction{{Op: isa.OpSub, Dest: 3, Src1: 2, Src2: 2}}, taint: []uint8{2, 3}, regs: map[uint8]bool{3: false}},
		{name: "xor/distinct-unions", text: []isa.Instruction{{Op: isa.OpXor, Dest: 3, Src1: 2, Src2: 4}}, taint: []uint8{4}, regs: map[uint8]bool{3: true}},

		// One-source copy.
		{name: "copy/tainted", text: []isa.Instruction{{Op: isa.OpAddi, Dest: 3, Src1: 2, Imm: 1}}, taint: []uint8{2}, regs: map[uint8]bool{3: true}},
		{name: "copy/clean", text: []isa.Instruction{{Op: isa.OpAddi, Dest: 3, Src1: 2, Imm: 1}}, taint: []uint8{3}, regs: map[uint8]bool{3: false}},

		// Clears. The unused source field names a tainted register, so a
		// clear that copied it would show.
		{name: "clear/movl", text: []isa.Instruction{{Op: isa.OpMovl, Dest: 3, Src1: 2, Imm: 7}}, taint: []uint8{2, 3}, regs: map[uint8]bool{3: false}},
		{name: "clear/mov-from-br", text: []isa.Instruction{{Op: isa.OpMovFromBr, Dest: 3, Src1: 2, B: 1}}, taint: []uint8{2, 3}, regs: map[uint8]bool{3: false}},
		{name: "clear/mov-from-unat", text: []isa.Instruction{{Op: isa.OpMovFromUnat, Dest: 3, Src1: 2}}, taint: []uint8{2, 3}, regs: map[uint8]bool{3: false}},

		// Plain loads: the OR over the accessed units.
		{name: "ld/tainted", text: []isa.Instruction{{Op: isa.OpLd, Dest: 3, Src1: 1, Size: 8}}, mem: [2]uint64{7, 1}, regs: map[uint8]bool{3: true}},
		{name: "ld/clean", text: []isa.Instruction{{Op: isa.OpLd, Dest: 3, Src1: 1, Size: 8}}, taint: []uint8{3}, regs: map[uint8]bool{3: false}},
		{name: "ld/outside-access", text: []isa.Instruction{{Op: isa.OpLd, Dest: 3, Src1: 1, Size: 4}}, taint: []uint8{3}, mem: [2]uint64{4, 4}, regs: map[uint8]bool{3: false}},

		// Speculative loads: a deferral is a token, and tokens are taint.
		{name: "ld.s/deferred-fault", text: []isa.Instruction{{Op: isa.OpLdS, Dest: 3, Src1: 5, Size: 8}},
			mach: func(m *machine.Machine) { m.GR[5] = int64(unmapped) }, regs: map[uint8]bool{3: true}},
		{name: "ld.s/deferred-nat-address", text: []isa.Instruction{{Op: isa.OpLdS, Dest: 3, Src1: 5, Size: 8}},
			mach: func(m *machine.Machine) { m.GR[5], m.NaT[5] = int64(dataAddr), true }, regs: map[uint8]bool{3: true}},
		{name: "ld.s/tainted", text: []isa.Instruction{{Op: isa.OpLdS, Dest: 3, Src1: 1, Size: 8}}, mem: [2]uint64{0, 1}, regs: map[uint8]bool{3: true}},
		{name: "ld.s/clean", text: []isa.Instruction{{Op: isa.OpLdS, Dest: 3, Src1: 1, Size: 8}}, taint: []uint8{3}, regs: map[uint8]bool{3: false}},

		// Fill: taint straight from the 8-byte spilled unit.
		{name: "ld.fill/tainted", text: []isa.Instruction{{Op: isa.OpLdFill, Dest: 3, Src1: 1, Size: 8}}, mem: [2]uint64{7, 1}, regs: map[uint8]bool{3: true}},
		{name: "ld.fill/nat-from-unat", text: []isa.Instruction{{Op: isa.OpLdFill, Dest: 3, Src1: 1, Size: 8, Imm: 0}}, mem: [2]uint64{0, 8},
			mach: func(m *machine.Machine) { m.UNAT = 1 }, regs: map[uint8]bool{3: true}},
		{name: "ld.fill/clean", text: []isa.Instruction{{Op: isa.OpLdFill, Dest: 3, Src1: 1, Size: 8}}, taint: []uint8{3}, regs: map[uint8]bool{3: false}},

		// Stores: the units take the data's taint. An original store in an
		// instrumented build is authoritative (visible to sweeps); ABI,
		// instrumentation-emitted and uninstrumented stores are hidden.
		{name: "st/tainted-authoritative", cfg: inst, text: st8(isa.ClassOrig, false), taint: []uint8{2},
			units: []unitWant{{0, true, false}, {7, true, false}, {8, false, false}}},
		{name: "st/clean-over-tainted", cfg: inst, text: []isa.Instruction{{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 4}}, mem: [2]uint64{0, 8},
			units: []unitWant{{0, false, false}, {3, false, false}, {4, true, false}}},
		{name: "st/abi-hidden", cfg: inst, text: st8(isa.ClassOrig, true), taint: []uint8{2}, units: []unitWant{{0, true, true}}},
		{name: "st/instrumentation-hidden", cfg: inst, text: st8(isa.ClassStoreTagMem, false), taint: []uint8{2}, units: []unitWant{{0, true, true}}},
		{name: "st/uninstrumented-hidden", text: st8(isa.ClassOrig, false), units: []unitWant{{0, false, true}}},
		{name: "st.spill/tainted", cfg: inst, text: []isa.Instruction{{Op: isa.OpStSpill, Src1: 1, Src2: 2, Size: 8}}, taint: []uint8{2},
			units: []unitWant{{0, true, false}, {7, true, false}}},

		// cmpxchg: dest takes the old taint; a committed exchange stores
		// the data's taint, an uncommitted one leaves memory alone.
		{name: "cmpxchg/committed/clean-mem+clean-data", cfg: inst, text: cmpxchg, mach: committed, taint: []uint8{3},
			regs: map[uint8]bool{3: false}, units: []unitWant{{0, false, false}}},
		{name: "cmpxchg/committed/tainted-mem+clean-data", cfg: inst, text: cmpxchg, mach: committed, mem: [2]uint64{0, 8},
			regs: map[uint8]bool{3: true}, units: []unitWant{{0, false, false}, {7, false, false}}},
		{name: "cmpxchg/committed/clean-mem+tainted-data", cfg: inst, text: cmpxchg, mach: committed, taint: []uint8{2, 3},
			regs: map[uint8]bool{3: false}, units: []unitWant{{0, true, false}, {7, true, false}}},
		{name: "cmpxchg/committed/tainted-mem+tainted-data", cfg: inst, text: cmpxchg, mach: committed, taint: []uint8{2}, mem: [2]uint64{0, 8},
			regs: map[uint8]bool{3: true}, units: []unitWant{{0, true, false}}},
		{name: "cmpxchg/committed/uninstrumented-hidden", text: cmpxchg, mach: committed, taint: []uint8{2},
			regs: map[uint8]bool{3: false}, units: []unitWant{{0, true, true}}},
		{name: "cmpxchg/uncommitted/clean-mem+tainted-data", cfg: inst, text: cmpxchg, mach: uncommitted, taint: []uint8{2, 3},
			regs: map[uint8]bool{3: false}, units: []unitWant{{0, false, false}}},
		{name: "cmpxchg/uncommitted/tainted-mem+clean-data", cfg: inst, text: cmpxchg, mach: uncommitted, mem: [2]uint64{0, 8},
			regs: map[uint8]bool{3: true}, units: []unitWant{{0, true, false}}},

		// ar.ccv carries its own shadow bit.
		{name: "ccv/set-tainted-get", text: []isa.Instruction{{Op: isa.OpMovToCcv, Src1: 2}, {Op: isa.OpMovFromCcv, Dest: 3}},
			taint: []uint8{2}, regs: map[uint8]bool{3: true}},
		{name: "ccv/set-clean-get", text: []isa.Instruction{{Op: isa.OpMovToCcv, Src1: 2}, {Op: isa.OpMovFromCcv, Dest: 3}},
			taint: []uint8{3}, ccv: true, regs: map[uint8]bool{3: false}},
		{name: "ccv/get-tainted", text: []isa.Instruction{{Op: isa.OpMovFromCcv, Dest: 3}}, ccv: true, regs: map[uint8]bool{3: true}},

		// Syscall: an OS result in r8 is clean; an untouched r8 keeps taint.
		{name: "syscall/r8-written", text: []isa.Instruction{{Op: isa.OpSyscall, Imm: 1}}, taint: []uint8{isa.RegRet}, regs: map[uint8]bool{isa.RegRet: false}},
		{name: "syscall/r8-untouched", text: []isa.Instruction{{Op: isa.OpSyscall, Imm: 0}}, taint: []uint8{isa.RegRet}, regs: map[uint8]bool{isa.RegRet: true}},

		// setnat/clrnat move NaT bits, not data.
		{name: "setnat/no-flow", text: []isa.Instruction{{Op: isa.OpSetNat, Dest: 3}}, regs: map[uint8]bool{3: false}},
		{name: "clrnat/no-flow", text: []isa.Instruction{{Op: isa.OpClrNat, Dest: 3}}, taint: []uint8{3}, regs: map[uint8]bool{3: true}},
	}

	// Every two-source ALU form unions both sources; every immediate form
	// and mov copies its one source.
	for _, op := range []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpAndcm, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpDiv, isa.OpRem} {
		text := []isa.Instruction{{Op: op, Dest: 3, Src1: 2, Src2: 4}}
		cases = append(cases,
			transferCase{name: op.Name() + "/s1", text: text, taint: []uint8{2}, regs: map[uint8]bool{3: true}},
			transferCase{name: op.Name() + "/s2", text: text, taint: []uint8{4}, regs: map[uint8]bool{3: true}},
			transferCase{name: op.Name() + "/none", text: text, taint: []uint8{3}, regs: map[uint8]bool{3: false}})
	}
	for _, op := range []isa.Opcode{isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpShli, isa.OpShri, isa.OpSari, isa.OpMov} {
		text := []isa.Instruction{{Op: op, Dest: 3, Src1: 2, Src2: 4, Imm: 1}}
		cases = append(cases,
			transferCase{name: op.Name() + "/s1", text: text, taint: []uint8{2}, regs: map[uint8]bool{3: true}},
			transferCase{name: op.Name() + "/other", text: text, taint: []uint8{3, 4}, regs: map[uint8]bool{3: false}})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, _ := buildMachine(t, c.text, taint.Byte)
			m.OS = r8OS{}
			m.Feat.SetClrNaT = true
			m.GR[1] = int64(dataAddr)
			m.GR[4] = 3 // a non-zero divisor
			if c.mach != nil {
				c.mach(m)
			}
			o := New(c.cfg, Boundary)
			m.Hook = o
			for _, r := range c.taint {
				o.regs(0).taint[r] = true
			}
			o.regs(0).ccv = c.ccv
			if c.mem[1] != 0 {
				o.HostTaint(dataAddr+c.mem[0], c.mem[1])
			}
			if trap := stepAll(m, len(c.text)); trap != nil {
				t.Fatal(trap)
			}
			for r, want := range c.regs {
				if got := o.regs(0).taint[r]; got != want {
					t.Errorf("r%d shadow taint = %v, want %v", r, got, want)
				}
			}
			for _, u := range c.units {
				gotT, gotH := o.mem.Unit(dataAddr + u.off)
				if gotT != u.taint || gotH != u.hidden {
					t.Errorf("unit +%d: taint=%v hidden=%v, want taint=%v hidden=%v", u.off, gotT, gotH, u.taint, u.hidden)
				}
			}
		})
	}
}

// r0 stays clean whatever a record writes to it. Validated programs
// never name r0 as a destination, so the rule is checked on records.
func TestTransferRulesR0(t *testing.T) {
	for _, kind := range []RecKind{RecUnion2, RecCopy, RecLoad, RecLoadSpec, RecLoadFill, RecCmpxchg, RecCcvGet} {
		st := NewState(Config{})
		st.regs(0).taint[2] = true
		st.regs(0).ccv = true
		st.HostTaint(dataAddr, 8)
		r := Rec{Kind: kind, Op: isa.OpNop, Dest: isa.RegZero, S1: 2, S2: 2, Size: 8, Addr: dataAddr, Flags: FlagDeferred}
		if d := st.Apply(&r); d != nil {
			t.Fatalf("kind %d: %v", kind, d)
		}
		if st.regs(0).taint[isa.RegZero] {
			t.Errorf("kind %d: r0 shadow-tainted", kind)
		}
	}
}

// The spawn rule: the child's first argument inherits the taint of the
// parent's second argument slot, whatever the child held before.
func TestTransferRulesSpawn(t *testing.T) {
	for _, parentArg := range []bool{false, true} {
		st := NewState(Config{})
		st.regs(0).taint[isa.RegArg0+1] = parentArg
		st.regs(1).taint[isa.RegArg0] = !parentArg
		st.OnSpawn(0, 1)
		if got := st.regs(1).taint[isa.RegArg0]; got != parentArg {
			t.Errorf("parent arg taint %v: child r%d = %v", parentArg, isa.RegArg0, got)
		}
	}
}
