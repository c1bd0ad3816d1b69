package oracle

import (
	"errors"
	"reflect"
	"testing"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/taint"
)

// The TestPipeline* tests cover the sink-granular checker, the checker
// behind shift.Result.Pipe and the commands' -tagpipe flag.

// A clean round trip must finish divergence-free, and every record must
// have been applied and counted.
func TestPipelineCleanRun(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 42},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8},
		{Op: isa.OpLd, Dest: 3, Src1: 1, Size: 8},
		{Op: isa.OpAdd, Dest: 4, Src1: 2, Src2: 3},
	}
	for _, instrumented := range []bool{false, true} {
		m, tags := buildMachine(t, text, taint.Byte)
		c := NewSinkChecker(Config{Tags: tags, Instrumented: instrumented})
		c.Attach(m)
		if trap := stepAll(m, len(text)); trap != nil {
			t.Fatalf("instrumented=%v: %v", instrumented, trap)
		}
		if err := c.Finish(m); err != nil {
			t.Fatalf("instrumented=%v: Finish: %v", instrumented, err)
		}
		if got := c.Stats.Records.Load(); got != uint64(len(text)) {
			t.Errorf("%d records, want %d", got, len(text))
		}
		if got := c.Stats.Drains.Load(); got != 1 {
			t.Errorf("%d drains, want 1 (Finish)", got)
		}
	}
}

// A store whose tag update went missing surfaces as a bitmap divergence.
// Detection is sink-granular: with no syscalls in the program it lands at
// Finish rather than at the next instruction boundary.
func TestPipelineCatchesStaleBitmap(t *testing.T) {
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
		c := NewSinkChecker(Config{Tags: tags, Instrumented: true})
		c.Attach(m)
		if trap := stepAll(m, len(text)); trap != nil {
			t.Fatalf("gran=%v: unexpected trap %v", g, trap)
		}
		err := c.Finish(m)
		var d *Divergence
		if !errors.As(err, &d) || d.Kind != DivBitmap {
			t.Fatalf("gran=%v: Finish = %v, want DivBitmap", g, err)
		}
		if !d.Machine || d.Shadow {
			t.Errorf("gran=%v: machine=%v shadow=%v, want true/false", g, d.Machine, d.Shadow)
		}
		if c.Divergence() == nil {
			t.Errorf("gran=%v: Divergence() not latched", g)
		}
	}
}

// A phantom NaT token on a register no record wrote (no shadow taint
// accounting for it) surfaces at the next sink's register check — here,
// Finish.
func TestPipelineCatchesPhantomNaT(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: 3},
		{Op: isa.OpAddi, Dest: 2, Src1: 1, Imm: 1},
	}
	m, tags := buildMachine(t, text, taint.Byte)
	c := NewSinkChecker(Config{Tags: tags, Instrumented: true})
	c.Attach(m)
	if trap := m.Step(); trap != nil {
		t.Fatal(trap)
	}
	m.NaT[6] = true // seeded bug: token appears out of nowhere
	if trap := m.Step(); trap != nil {
		t.Fatalf("sink checks fired mid-run: %v (expected sink-granular detection)", trap)
	}
	err := c.Finish(m)
	var d *Divergence
	if !errors.As(err, &d) || d.Kind != DivRegister || d.Reg != 6 {
		t.Fatalf("Finish = %v, want DivRegister on r6", err)
	}
}

// The reverse direction: shadow taint the machine lost (NaT clear where
// the reference says tainted) surfaces at the closing check too.
func TestPipelineCatchesDroppedTaint(t *testing.T) {
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
	c := NewSinkChecker(Config{Tags: tags, Instrumented: true})
	c.Attach(m)
	c.HostTaint(dataAddr, 8) // the OS says the source is real
	if trap := stepAll(m, len(text)); trap != nil {
		t.Fatalf("unexpected trap %v", trap)
	}
	err := c.Finish(m)
	var d *Divergence
	if !errors.As(err, &d) || d.Kind != DivRegister {
		t.Fatalf("Finish = %v, want DivRegister", err)
	}
	if d.Machine || !d.Shadow {
		t.Errorf("machine=%v shadow=%v, want false/true", d.Machine, d.Shadow)
	}
}

// natAfter is a step hook that runs before the checker and sets a
// register's NaT bit once the instruction at pc has executed: a seeded
// machine bug the checker sees in that instruction's record.
type natAfter struct {
	pc  int
	reg uint8
}

func (h natAfter) PreStep(*machine.Machine, *isa.Instruction) {}

func (h natAfter) PostStep(m *machine.Machine, _ *isa.Instruction) error {
	if m.PC == h.pc {
		m.NaT[h.reg] = true
	}
	return nil
}

// runSeeded single-steps text with the checker mk builds behind a
// natAfter seed, and returns the step that trapped and the divergence it
// carried.
func runSeeded(t *testing.T, text []isa.Instruction, seed natAfter, mk func(*taint.Space) machine.StepHook) (int, *Divergence) {
	t.Helper()
	m, tags := buildMachine(t, text, taint.Byte)
	m.Feat.SetClrNaT = true
	m.Hook = machine.MultiHook{seed, mk(tags)}
	for i := range text {
		if trap := m.Step(); trap != nil {
			var d *Divergence
			if trap.Kind != machine.TrapOracle || !errors.As(trap.Err, &d) {
				t.Fatalf("step %d: trap %v, want a divergence", i, trap)
			}
			return i, d
		}
	}
	t.Fatal("no divergence reported")
	return 0, nil
}

// The mechanical NaT rules keep per-record granularity: a plain load
// that left NaT set is reported at the load itself, without waiting for
// a sink.
func TestPipelineNaTRulePerRecord(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpLd, Dest: 5, Src1: 1, Size: 8},
		{Op: isa.OpNop},
		{Op: isa.OpNop},
	}
	var c *SinkChecker
	step, d := runSeeded(t, text, natAfter{pc: 1, reg: 5}, func(*taint.Space) machine.StepHook {
		c = NewSinkChecker(Config{})
		return c
	})
	if step != 1 || d.Kind != DivNaTRule || d.Reg != 5 || d.PC != 1 || d.Ins != text[1].String() {
		t.Fatalf("step %d: divergence = %+v, want DivNaTRule on r5 at the ld (step 1, pc 1)", step, d)
	}
	if c.Divergence() != d {
		t.Error("Divergence() does not return the reported divergence")
	}
}

// A per-record register divergence (a NaT token the shadow cannot
// account for) is reported at the retiring instruction, with the same
// kind, register, PC and disassembly the lockstep oracle reports.
func TestPipelineReportsAtRetiringInstruction(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: 3},
		{Op: isa.OpSetNat, Dest: 4}, // a token from nowhere
		{Op: isa.OpAddi, Dest: 2, Src1: 1, Imm: 1},
		{Op: isa.OpNop},
	}
	none := natAfter{pc: -1}
	refStep, ref := runSeeded(t, text, none, func(tags *taint.Space) machine.StepHook {
		return New(Config{Tags: tags, Instrumented: true})
	})
	gotStep, got := runSeeded(t, text, none, func(tags *taint.Space) machine.StepHook {
		return NewSinkChecker(Config{Tags: tags, Instrumented: true})
	})
	if ref.Kind != DivRegister || ref.Reg != 4 || refStep != 1 {
		t.Fatalf("oracle reported %v on r%d at step %d, want DivRegister on r4 at step 1", ref.Kind, ref.Reg, refStep)
	}
	if gotStep != refStep || got.Kind != ref.Kind || got.Reg != ref.Reg ||
		got.TID != ref.TID || got.PC != ref.PC || got.Ins != ref.Ins {
		t.Fatalf("sink checker: %v on r%d at pc %d [%s], step %d; oracle: %v on r%d at pc %d [%s], step %d",
			got.Kind, got.Reg, got.PC, got.Ins, gotStep, ref.Kind, ref.Reg, ref.PC, ref.Ins, refStep)
	}
}

// Host effects land on the shadow exactly where they fall in retirement
// order, each counted as a sink: the checker's state equals a reference
// State that saw the same records and notifications applied one by one.
func TestPipelineHostEffects(t *testing.T) {
	_, tags := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, taint.Byte)
	c, ref := NewSinkChecker(Config{Tags: tags, Instrumented: true}), NewState(Config{Tags: tags, Instrumented: true})
	// A clean store, then a host source over it: the source survives only
	// if it is applied after the store.
	applyBoth(t, c, ref, Rec{Kind: RecStore, Op: isa.OpSt, S2: 2, Size: 4, Addr: dataAddr})
	c.HostTaint(dataAddr, 4)
	ref.HostTaint(dataAddr, 4)
	applyBoth(t, c, ref, Rec{Kind: RecLoad, Op: isa.OpLd, Dest: 3, Size: 4, Addr: dataAddr})
	c.HostUntaint(dataAddr+2, 2)
	ref.HostUntaint(dataAddr+2, 2)
	c.HostWrite(dataAddr, 4)
	ref.HostWrite(dataAddr, 4)
	c.HostWrite(dataAddr, 0) // empty effects are no sinks
	applyBoth(t, c, ref, Rec{Kind: RecLoad, Op: isa.OpLd, Dest: 4, Size: 2, Addr: dataAddr + 2})
	sameState(t, c.st, ref)
	if got := c.Stats.Drains.Load(); got != 3 {
		t.Errorf("%d drains, want 3 (one per host effect)", got)
	}
	if got := c.Stats.Records.Load(); got != 2 {
		t.Errorf("%d records published, want 2 (the records before the last sink)", got)
	}
}

// A spawn is a sink too: the child inherits the argument taint the
// parent had at that point in the stream, and the UnsafePreempt
// stand-down applies from there on, as in the oracle.
func TestPipelineSpawn(t *testing.T) {
	for _, unsafe := range []bool{false, true} {
		_, tags := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, taint.Byte)
		c := NewSinkChecker(Config{Tags: tags, Instrumented: true, UnsafePreempt: unsafe})
		ref := NewState(Config{Tags: tags, Instrumented: true, UnsafePreempt: unsafe})
		c.HostTaint(dataAddr, 8)
		ref.HostTaint(dataAddr, 8)
		applyBoth(t, c, ref, Rec{Kind: RecLoad, Op: isa.OpLd, Dest: isa.RegArg0 + 1, Size: 8, Addr: dataAddr})
		c.OnSpawn(0, 1)
		ref.OnSpawn(0, 1)
		sameState(t, c.st, ref)
		if c.st.Checking() == unsafe {
			t.Errorf("unsafe=%v: strong checks %v after spawn", unsafe, c.st.Checking())
		}
	}
}

// applyBoth applies r through the checker's record path and to the
// reference.
func applyBoth(t *testing.T, c *SinkChecker, ref *State, r Rec) {
	t.Helper()
	if d := c.emit(r); d != nil {
		t.Fatal(d)
	}
	if d := ref.Apply(&r); d != nil {
		t.Fatal(d)
	}
}

// emit applies one prebuilt record and counts it, the way PostStep
// applies an encoded one.
func (c *SinkChecker) emit(r Rec) *Divergence {
	c.records++
	return c.st.Apply(&r)
}

// sameState asserts two shadow states are identical over every thread
// and every tracked unit.
func sameState(t *testing.T, a, b *State) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shadow states differ")
	}
}
