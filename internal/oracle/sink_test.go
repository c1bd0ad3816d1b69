package oracle

import (
	"errors"
	"reflect"
	"testing"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/taint"
)

// The TestPipeline* tests cover what is particular to Sink granularity,
// the checker behind shift.Result.Pipe and the commands' -tagpipe flag;
// the TestOracle* table tests run both granularities.

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
	var c *Checker
	step, d := runSeeded(t, text, natAfter{pc: 1, reg: 5}, func(*taint.Space) machine.StepHook {
		c = New(Config{}, Sink)
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
		return New(Config{Tags: tags, Instrumented: true}, Boundary)
	})
	gotStep, got := runSeeded(t, text, none, func(tags *taint.Space) machine.StepHook {
		return New(Config{Tags: tags, Instrumented: true}, Sink)
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

// applyBoth applies r through the checker's record path and to the
// reference.
func applyBoth(t *testing.T, c *Checker, ref *State, r Rec) {
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
func (c *Checker) emit(r Rec) *Divergence {
	c.n.records++
	return c.Apply(&r)
}

// sameState asserts two shadow states are identical over every thread
// and every tracked unit.
func sameState(t *testing.T, a, b *State) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shadow states differ")
	}
}
