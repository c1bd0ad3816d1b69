package oracle

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/taint"
)

var update = flag.Bool("update", false, "rewrite testdata/divergence.golden")

// goldenCase is one seeded-bug program whose divergence report is pinned.
type goldenCase struct {
	name string
	text []isa.Instruction
	gran taint.Granularity
	// bare runs the checker with no tag space (mechanical NaT rules only).
	bare bool
	// seed, when set, runs before the checker and sets a NaT bit.
	seed *natAfter
	// setup runs once the checker is built; before runs ahead of step i;
	// after runs once every step retired, ahead of Finish.
	setup  func(tags *taint.Space, c *Checker) error
	before func(i int, m *machine.Machine)
	after  func(tags *taint.Space) error
}

func goldenCases() []goldenCase {
	stale := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 7},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8}, // clean store, no tag update follows
		{Op: isa.OpAdd, Dest: 4, Src1: 2, Src2: 2},
	}
	staleTaint := func(tags *taint.Space, _ *Checker) error { return tags.SetRange(dataAddr, 8) }
	return []goldenCase{
		{name: "stale-bitmap-byte", text: stale, gran: taint.Byte, setup: staleTaint},
		{name: "stale-bitmap-word", text: stale, gran: taint.Word, setup: staleTaint},
		{
			name: "phantom-nat",
			text: []isa.Instruction{
				{Op: isa.OpMovl, Dest: 1, Imm: 3},
				{Op: isa.OpAddi, Dest: 2, Src1: 1, Imm: 1},
			},
			before: func(i int, m *machine.Machine) {
				if i == 1 {
					m.NaT[6] = true // a token from nowhere
				}
			},
		},
		{
			name: "dropped-taint",
			text: []isa.Instruction{
				{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
				{Op: isa.OpLd, Dest: 2, Src1: 1, Size: 8}, // loads tainted data, NaT stays clear
				{Op: isa.OpAddi, Dest: 3, Src1: 2, Imm: 1},
				{Op: isa.OpNop},
			},
			setup: func(tags *taint.Space, c *Checker) error {
				c.HostTaint(dataAddr, 8)
				return tags.SetRange(dataAddr, 8)
			},
		},
		{
			name: "nat-rule-per-record",
			text: []isa.Instruction{
				{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
				{Op: isa.OpLd, Dest: 5, Src1: 1, Size: 8},
				{Op: isa.OpNop},
				{Op: isa.OpNop},
			},
			bare: true,
			seed: &natAfter{pc: 1, reg: 5},
		},
		{
			name: "retiring-instruction",
			text: []isa.Instruction{
				{Op: isa.OpMovl, Dest: 1, Imm: 3},
				{Op: isa.OpSetNat, Dest: 4},
				{Op: isa.OpAddi, Dest: 2, Src1: 1, Imm: 1},
				{Op: isa.OpNop},
			},
		},
		{
			name: "syscall-sweep",
			text: []isa.Instruction{
				{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
				{Op: isa.OpMovl, Dest: 2, Imm: 7},
				{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8}, // clean store, no tag update follows
				{Op: isa.OpSyscall, Imm: 1},
				{Op: isa.OpNop},
			},
			setup: staleTaint,
		},
		{
			name: "finish-sweep",
			text: []isa.Instruction{
				{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
				{Op: isa.OpMovl, Dest: 2, Imm: 9},
				{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8},
				{Op: isa.OpNop},
			},
			after: func(tags *taint.Space) error { return tags.SetRange(dataAddr, 8) },
		},
	}
}

// goldenReport runs gc under a checker at granularity g and returns where
// the divergence landed (a step, or Finish) and its full report.
func goldenReport(t *testing.T, gc goldenCase, g Granularity) string {
	t.Helper()
	m, tags := buildMachine(t, gc.text, gc.gran)
	m.OS = r8OS{}
	m.Feat.SetClrNaT = true
	cfg := Config{Tags: tags, Instrumented: true}
	if gc.bare {
		cfg = Config{}
	}
	c := New(cfg, g)
	m.Hook = c
	if gc.seed != nil {
		m.Hook = machine.MultiHook{*gc.seed, c}
	}
	if gc.setup != nil {
		if err := gc.setup(tags, c); err != nil {
			t.Fatal(err)
		}
	}
	for i := range gc.text {
		if gc.before != nil {
			gc.before(i, m)
		}
		if trap := m.Step(); trap != nil {
			var d *Divergence
			if trap.Kind != machine.TrapOracle || !errors.As(trap.Err, &d) {
				t.Fatalf("step %d: trap %v, want a divergence", i, trap)
			}
			return fmt.Sprintf("step %d: %s", i, d.Error())
		}
	}
	if gc.after != nil {
		if err := gc.after(tags); err != nil {
			t.Fatal(err)
		}
	}
	var d *Divergence
	if err := c.Finish(m); !errors.As(err, &d) {
		t.Fatalf("Finish = %v, want a divergence", err)
	}
	return "finish: " + d.Error()
}

// TestDivergenceGolden pins the full text of every seeded-bug report
// under both checking granularities: the kind, thread, PC, disassembly,
// where detection landed, and the register/NaT/shadow snapshot. Refresh
// with `go test ./internal/oracle -run TestDivergenceGolden -update`
// only when a report change is intended.
func TestDivergenceGolden(t *testing.T) {
	var b strings.Builder
	for _, gc := range goldenCases() {
		for _, g := range grans {
			fmt.Fprintf(&b, "=== %s %v\n%s", gc.name, g, goldenReport(t, gc, g))
		}
	}
	const path = "testdata/divergence.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("divergence reports differ from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
