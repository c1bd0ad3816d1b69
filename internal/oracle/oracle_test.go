package oracle

import (
	"errors"
	"testing"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/mem"
	"shift/internal/taint"
)

// buildMachine assembles a program, maps the data regions and returns a
// machine with a tag space over region 0.
func buildMachine(t *testing.T, text []isa.Instruction, g taint.Granularity) (*machine.Machine, *taint.Space) {
	t.Helper()
	p := &isa.Program{Text: text}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	memory := mem.New()
	tags := taint.NewSpace(memory, g) // maps region 0
	memory.MapRegion(2, 0)
	m := machine.New(p, memory)
	return m, tags
}

// stepAll single-steps the whole program, returning the first trap.
func stepAll(m *machine.Machine, n int) *machine.Trap {
	for i := 0; i < n; i++ {
		if trap := m.Step(); trap != nil {
			return trap
		}
	}
	return nil
}

var dataAddr = mem.Addr(2, 0x100)

// A store/load/ALU round trip with agreeing state must run divergence-free
// in both instrumented and uninstrumented configurations.
func TestOracleCleanRun(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 42},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8},
		{Op: isa.OpLd, Dest: 3, Src1: 1, Size: 8},
		{Op: isa.OpAdd, Dest: 4, Src1: 2, Src2: 3},
	}
	for _, instrumented := range []bool{false, true} {
		m, tags := buildMachine(t, text, taint.Byte)
		o := New(Config{Tags: tags, Instrumented: instrumented})
		o.Attach(m)
		if trap := stepAll(m, len(text)); trap != nil {
			t.Fatalf("instrumented=%v: %v", instrumented, trap)
		}
		if err := o.Finish(m); err != nil {
			t.Fatalf("instrumented=%v: Finish: %v", instrumented, err)
		}
		if o.Stats.Steps != uint64(len(text)) {
			t.Errorf("observed %d steps, want %d", o.Stats.Steps, len(text))
		}
	}
}

// A store whose tag update went missing (here: the bitmap says tainted,
// the stored value was clean) must surface as a bitmap divergence at the
// next original-instruction boundary.
func TestOracleCatchesStaleBitmap(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 7},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8}, // clean store, no tag update follows
		{Op: isa.OpAdd, Dest: 4, Src1: 2, Src2: 2},
	}
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		m, tags := buildMachine(t, text, g)
		if err := tags.SetRange(dataAddr, 8); err != nil { // seeded bug: stale taint
			t.Fatal(err)
		}
		o := New(Config{Tags: tags, Instrumented: true})
		o.Attach(m)
		trap := stepAll(m, len(text))
		if trap == nil || trap.Kind != machine.TrapOracle {
			t.Fatalf("gran=%v: trap = %v, want oracle divergence", g, trap)
		}
		var d *Divergence
		if !errors.As(trap.Err, &d) || d.Kind != DivBitmap {
			t.Fatalf("gran=%v: divergence = %+v, want DivBitmap", g, trap.Err)
		}
		if d.Addr != tags.Gran.UnitBytes()*(dataAddr/tags.Gran.UnitBytes()) {
			t.Errorf("gran=%v: diverging unit %#x, want one covering %#x", g, d.Addr, dataAddr)
		}
		if !d.Machine || d.Shadow {
			t.Errorf("gran=%v: machine=%v shadow=%v, want true/false", g, d.Machine, d.Shadow)
		}
	}
}

// A NaT bit with no shadow taint to account for it (a phantom token) must
// surface as a register divergence at the next boundary sweep.
func TestOracleCatchesPhantomNaT(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: 3},
		{Op: isa.OpAddi, Dest: 2, Src1: 1, Imm: 1},
	}
	m, tags := buildMachine(t, text, taint.Byte)
	o := New(Config{Tags: tags, Instrumented: true})
	o.Attach(m)
	if trap := m.Step(); trap != nil {
		t.Fatal(trap)
	}
	m.NaT[6] = true // seeded bug: token appears out of nowhere
	trap := m.Step()
	if trap == nil || trap.Kind != machine.TrapOracle {
		t.Fatalf("trap = %v, want oracle divergence", trap)
	}
	var d *Divergence
	if !errors.As(trap.Err, &d) || d.Kind != DivRegister || d.Reg != 6 {
		t.Fatalf("divergence = %+v, want DivRegister on r6", trap.Err)
	}
}

// The reverse direction: shadow taint the machine lost (NaT cleared where
// the reference says the data is tainted) must also surface.
func TestOracleCatchesDroppedTaint(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpLd, Dest: 2, Src1: 1, Size: 8}, // loads tainted data, NaT stays clear
		{Op: isa.OpAddi, Dest: 3, Src1: 2, Imm: 1},
		{Op: isa.OpNop},
	}
	m, tags := buildMachine(t, text, taint.Byte)
	if err := tags.SetRange(dataAddr, 8); err != nil {
		t.Fatal(err)
	}
	o := New(Config{Tags: tags, Instrumented: true})
	o.Attach(m)
	// Tell the shadow the tainted source is real (as the OS would).
	o.HostTaint(dataAddr, 8)
	trap := stepAll(m, len(text))
	if trap == nil || trap.Kind != machine.TrapOracle {
		t.Fatalf("trap = %v, want oracle divergence", trap)
	}
	var d *Divergence
	if !errors.As(trap.Err, &d) || d.Kind != DivRegister {
		t.Fatalf("divergence = %+v, want DivRegister", trap.Err)
	}
	if d.Machine || !d.Shadow {
		t.Errorf("machine=%v shadow=%v, want false/true (machine dropped the taint)", d.Machine, d.Shadow)
	}
}

// Speculative-load deferral: the oracle recomputes the defer decision
// independently and must agree with the machine on both outcomes.
func TestOracleLdSDeferAgreement(t *testing.T) {
	unmapped := mem.Addr(5, 0x40) // region 5 is not mapped
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(unmapped)},
		{Op: isa.OpLdS, Dest: 2, Src1: 1, Size: 8}, // faults -> defers -> NaT
		{Op: isa.OpMovl, Dest: 3, Imm: int64(dataAddr)},
		{Op: isa.OpLdS, Dest: 4, Src1: 3, Size: 8}, // succeeds -> clean
	}
	m, _ := buildMachine(t, text, taint.Byte)
	o := New(Config{}) // mechanical NaT-rule checks only
	o.Attach(m)
	if trap := stepAll(m, len(text)); trap != nil {
		t.Fatal(trap)
	}
	if !m.NaT[2] || m.NaT[4] {
		t.Fatalf("NaT[2]=%v NaT[4]=%v, want true/false", m.NaT[2], m.NaT[4])
	}
	if o.Divergence() != nil {
		t.Fatalf("unexpected divergence: %v", o.Divergence())
	}
}

// Finish must catch state that diverged after the last instruction (e.g.
// a final tag write with no store behind it).
func TestOracleFinishSweeps(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 9},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8},
		{Op: isa.OpNop},
	}
	m, tags := buildMachine(t, text, taint.Byte)
	o := New(Config{Tags: tags, Instrumented: true})
	o.Attach(m)
	if trap := stepAll(m, len(text)); trap != nil {
		t.Fatal(trap)
	}
	if err := o.Finish(m); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if err := tags.SetRange(dataAddr, 8); err != nil {
		t.Fatal(err)
	}
	err := o.Finish(m)
	var d *Divergence
	if !errors.As(err, &d) || d.Kind != DivBitmap {
		t.Fatalf("Finish = %v, want DivBitmap", err)
	}
}

// Host-effect notifications must steer the shadow: taint marking and
// explicit clearing drive it, while a host write keeps the shadow's own
// view so the bitmap's stickiness is checked rather than adopted.
func TestOracleHostEffects(t *testing.T) {
	m, tags := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, taint.Byte)
	_ = m
	o := New(Config{Tags: tags, Instrumented: true})

	o.HostTaint(dataAddr, 4)
	if !o.mem.Load(dataAddr, 4) {
		t.Error("HostTaint did not mark the shadow")
	}
	o.HostUntaint(dataAddr, 4)
	if o.mem.Load(dataAddr, 4) {
		t.Error("HostUntaint did not clear the shadow")
	}
	// A host write over a previously tainted range preserves the shadow's
	// taint (OS tag stickiness is the reference semantics under check).
	o.HostTaint(dataAddr, 2)
	o.HostWrite(dataAddr, 4)
	if !o.mem.Load(dataAddr, 2) || o.mem.Load(dataAddr+2, 2) {
		t.Error("HostWrite did not preserve the shadow's sticky taint")
	}
}

// A tag bit the OS model should have left alone (stickiness says a host
// write never changes the bitmap) must surface as a bitmap divergence at
// the next sweep instead of being silently adopted into the shadow.
func TestOracleChecksHostWriteStickiness(t *testing.T) {
	m, tags := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, taint.Byte)
	o := New(Config{Tags: tags, Instrumented: true})
	o.Attach(m)

	// Seeded bug: the bitmap gains taint under a host write with no
	// source (HostTaint) to justify it.
	if err := tags.SetRange(dataAddr, 2); err != nil {
		t.Fatal(err)
	}
	o.HostWrite(dataAddr, 4)
	if o.mem.Load(dataAddr, 4) {
		t.Fatal("shadow adopted unexplained bitmap taint")
	}
	err := o.Finish(m)
	var d *Divergence
	if !errors.As(err, &d) || d.Kind != DivBitmap {
		t.Fatalf("Finish = %v, want DivBitmap on the stuck-on tag", err)
	}
	if !d.Machine || d.Shadow {
		t.Errorf("machine=%v shadow=%v, want true/false", d.Machine, d.Shadow)
	}
}

// Under tag-coherent scheduling (the default) spawning a second thread
// keeps every strong check standing; only the UnsafePreempt configuration
// reproduces the old stand-down. The child's argument-taint inheritance
// applies in both modes.
func TestOracleSpawnKeepsChecking(t *testing.T) {
	m, tags := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, taint.Byte)
	_ = m
	o := New(Config{Tags: tags, Instrumented: true})
	if !o.Checking() {
		t.Fatal("oracle not checking before spawn")
	}
	o.regs(0).taint[isa.RegArg0+1] = true
	o.OnSpawn(0, 1)
	if !o.Checking() {
		t.Error("strong checks stood down after spawn despite coherent scheduling")
	}
	if !o.regs(1).taint[isa.RegArg0] {
		t.Error("child argument taint not inherited")
	}

	u := New(Config{Tags: tags, Instrumented: true, UnsafePreempt: true})
	u.regs(0).taint[isa.RegArg0+1] = true
	u.OnSpawn(0, 1)
	if u.Checking() {
		t.Error("strong checks still on after spawn under UnsafePreempt")
	}
	if !u.regs(1).taint[isa.RegArg0] {
		t.Error("child argument taint not inherited under UnsafePreempt")
	}
}
