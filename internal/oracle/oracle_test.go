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

// grans are the two checking granularities, for table tests.
var grans = []Granularity{Boundary, Sink}

// atFinish marks a divergence detected by Finish rather than at a step.
const atFinish = -1

// detect steps m n more times and then calls Finish, and returns where
// the checker reported its divergence (the program's step index, or
// atFinish) and the divergence. A trap that carries no divergence fails
// the test.
func detect(t *testing.T, m *machine.Machine, c *Checker, n int) (int, *Divergence) {
	t.Helper()
	var d *Divergence
	base := int(m.Retired)
	for i := base; i < base+n; i++ {
		if trap := m.Step(); trap != nil {
			if trap.Kind != machine.TrapOracle || !errors.As(trap.Err, &d) {
				t.Fatalf("step %d: trap %v, want a divergence", i, trap)
			}
			return i, d
		}
	}
	if err := c.Finish(m); !errors.As(err, &d) {
		t.Fatalf("Finish = %v, want a divergence", err)
	}
	return atFinish, d
}

// A store/load/ALU round trip with agreeing state must run divergence-free
// in both instrumented and uninstrumented configurations, at either
// granularity, with every step observed and every record applied.
func TestOracleCleanRun(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 42},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8},
		{Op: isa.OpLd, Dest: 3, Src1: 1, Size: 8},
		{Op: isa.OpAdd, Dest: 4, Src1: 2, Src2: 3},
	}
	for _, g := range grans {
		t.Run(g.String(), func(t *testing.T) {
			for _, instrumented := range []bool{false, true} {
				m, tags := buildMachine(t, text, taint.Byte)
				c := New(Config{Tags: tags, Instrumented: instrumented}, g)
				m.Hook = c
				if trap := stepAll(m, len(text)); trap != nil {
					t.Fatalf("instrumented=%v: %v", instrumented, trap)
				}
				if err := c.Finish(m); err != nil {
					t.Fatalf("instrumented=%v: Finish: %v", instrumented, err)
				}
				if got := c.Stats.Steps.Load(); got != uint64(len(text)) {
					t.Errorf("observed %d steps, want %d", got, len(text))
				}
				if got := c.Stats.Records.Load(); got != uint64(len(text)) {
					t.Errorf("%d records, want %d", got, len(text))
				}
				if got := c.Stats.Drains.Load(); got != 1 {
					t.Errorf("%d drains, want 1 (Finish)", got)
				}
			}
		})
	}
}

// A store whose tag update went missing (here: the bitmap says tainted,
// the stored value was clean) must surface as a bitmap divergence: at
// the next original-instruction boundary at Boundary granularity, and —
// the program has no syscalls — at Finish at Sink granularity.
func TestOracleCatchesStaleBitmap(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 7},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8}, // clean store, no tag update follows
		{Op: isa.OpAdd, Dest: 4, Src1: 2, Src2: 2},
	}
	rows := []struct {
		g  Granularity
		at int
	}{{Boundary, 3}, {Sink, atFinish}}
	for _, row := range rows {
		t.Run(row.g.String(), func(t *testing.T) {
			for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
				m, tags := buildMachine(t, text, g)
				if err := tags.SetRange(dataAddr, 8); err != nil { // seeded bug: stale taint
					t.Fatal(err)
				}
				c := New(Config{Tags: tags, Instrumented: true}, row.g)
				m.Hook = c
				at, d := detect(t, m, c, len(text))
				if at != row.at || d.Kind != DivBitmap {
					t.Fatalf("gran=%v: %v at %d, want DivBitmap at %d", g, d.Kind, at, row.at)
				}
				if d.Addr != tags.Gran.UnitBytes()*(dataAddr/tags.Gran.UnitBytes()) {
					t.Errorf("gran=%v: diverging unit %#x, want one covering %#x", g, d.Addr, dataAddr)
				}
				if !d.Machine || d.Shadow {
					t.Errorf("gran=%v: machine=%v shadow=%v, want true/false", g, d.Machine, d.Shadow)
				}
				if c.Divergence() != d {
					t.Errorf("gran=%v: Divergence() not latched", g)
				}
			}
		})
	}
}

// A NaT bit with no shadow taint to account for it (a phantom token) must
// surface as a register divergence: at the next boundary at Boundary
// granularity, at Finish's register check at Sink granularity.
func TestOracleCatchesPhantomNaT(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: 3},
		{Op: isa.OpAddi, Dest: 2, Src1: 1, Imm: 1},
	}
	rows := []struct {
		g  Granularity
		at int
	}{{Boundary, 1}, {Sink, atFinish}}
	for _, row := range rows {
		t.Run(row.g.String(), func(t *testing.T) {
			m, tags := buildMachine(t, text, taint.Byte)
			c := New(Config{Tags: tags, Instrumented: true}, row.g)
			m.Hook = c
			if trap := m.Step(); trap != nil {
				t.Fatal(trap)
			}
			m.NaT[6] = true // seeded bug: token appears out of nowhere
			at, d := detect(t, m, c, 1)
			if at != row.at || d.Kind != DivRegister || d.Reg != 6 {
				t.Fatalf("%v on r%d at %d, want DivRegister on r6 at %d", d.Kind, d.Reg, at, row.at)
			}
		})
	}
}

// The reverse direction: shadow taint the machine lost (NaT cleared where
// the reference says the data is tainted) must also surface, at the next
// boundary or at the closing check.
func TestOracleCatchesDroppedTaint(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpLd, Dest: 2, Src1: 1, Size: 8}, // loads tainted data, NaT stays clear
		{Op: isa.OpAddi, Dest: 3, Src1: 2, Imm: 1},
		{Op: isa.OpNop},
	}
	rows := []struct {
		g  Granularity
		at int
	}{{Boundary, 2}, {Sink, atFinish}}
	for _, row := range rows {
		t.Run(row.g.String(), func(t *testing.T) {
			m, tags := buildMachine(t, text, taint.Byte)
			if err := tags.SetRange(dataAddr, 8); err != nil {
				t.Fatal(err)
			}
			c := New(Config{Tags: tags, Instrumented: true}, row.g)
			m.Hook = c
			// Tell the shadow the tainted source is real (as the OS would).
			c.HostTaint(dataAddr, 8)
			at, d := detect(t, m, c, len(text))
			if at != row.at || d.Kind != DivRegister {
				t.Fatalf("%v at %d, want DivRegister at %d", d.Kind, at, row.at)
			}
			if d.Machine || !d.Shadow {
				t.Errorf("machine=%v shadow=%v, want false/true (machine dropped the taint)", d.Machine, d.Shadow)
			}
		})
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
	o := New(Config{}, Boundary) // mechanical NaT-rule checks only
	m.Hook = o
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
// a final tag write with no store behind it), at either granularity.
func TestOracleFinishSweeps(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 9},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8},
		{Op: isa.OpNop},
	}
	for _, g := range grans {
		m, tags := buildMachine(t, text, taint.Byte)
		o := New(Config{Tags: tags, Instrumented: true}, g)
		m.Hook = o
		if trap := stepAll(m, len(text)); trap != nil {
			t.Fatal(trap)
		}
		if err := o.Finish(m); err != nil {
			t.Fatalf("%v: clean run: %v", g, err)
		}
		if err := tags.SetRange(dataAddr, 8); err != nil {
			t.Fatal(err)
		}
		err := o.Finish(m)
		var d *Divergence
		if !errors.As(err, &d) || d.Kind != DivBitmap {
			t.Fatalf("%v: Finish = %v, want DivBitmap", g, err)
		}
	}
}

// Host-effect notifications must steer the shadow: taint marking and
// explicit clearing drive it, while a host write keeps the shadow's own
// view so the bitmap's stickiness is checked rather than adopted. Each
// non-empty effect is a sink, and lands on the shadow exactly where it
// falls in retirement order: the checker's state equals a reference
// State that saw the same records and notifications applied one by one.
func TestOracleHostEffects(t *testing.T) {
	for _, g := range grans {
		t.Run(g.String(), func(t *testing.T) {
			_, tags := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, taint.Byte)
			o := New(Config{Tags: tags, Instrumented: true}, g)
			o.HostTaint(dataAddr, 4)
			if !o.mem.Load(dataAddr, 4) {
				t.Errorf("HostTaint did not mark the shadow")
			}
			o.HostUntaint(dataAddr, 4)
			if o.mem.Load(dataAddr, 4) {
				t.Errorf("HostUntaint did not clear the shadow")
			}
			// A host write over a previously tainted range preserves the
			// shadow's taint (OS tag stickiness is the reference semantics
			// under check).
			o.HostTaint(dataAddr, 2)
			o.HostWrite(dataAddr, 4)
			if !o.mem.Load(dataAddr, 2) || o.mem.Load(dataAddr+2, 2) {
				t.Errorf("HostWrite did not preserve the shadow's sticky taint")
			}

			c, ref := New(Config{Tags: tags, Instrumented: true}, g), NewState(Config{Tags: tags, Instrumented: true})
			// A clean store, then a host source over it: the source survives
			// only if it is applied after the store.
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
			sameState(t, c.State, ref)
			if got := c.Stats.Drains.Load(); got != 3 {
				t.Errorf("%d drains, want 3 (one per host effect)", got)
			}
			if got := c.Stats.Records.Load(); got != 2 {
				t.Errorf("%d records published, want 2 (the records before the last sink)", got)
			}
		})
	}
}

// A tag bit the OS model should have left alone (stickiness says a host
// write never changes the bitmap) must surface as a bitmap divergence at
// the next sweep instead of being silently adopted into the shadow.
func TestOracleChecksHostWriteStickiness(t *testing.T) {
	m, tags := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, taint.Byte)
	o := New(Config{Tags: tags, Instrumented: true}, Boundary)
	m.Hook = o

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
// reproduces the stand-down, from the spawn on. A spawn is a sink: the
// child inherits the argument taint the parent had at that point in the
// stream, in both scheduling modes and at either granularity.
func TestOracleSpawnKeepsChecking(t *testing.T) {
	for _, g := range grans {
		t.Run(g.String(), func(t *testing.T) {
			for _, unsafe := range []bool{false, true} {
				_, tags := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, taint.Byte)
				cfg := Config{Tags: tags, Instrumented: true, UnsafePreempt: unsafe}
				c, ref := New(cfg, g), NewState(cfg)
				if !c.Checking() {
					t.Fatalf("unsafe=%v: not checking before spawn", unsafe)
				}
				c.HostTaint(dataAddr, 8)
				ref.HostTaint(dataAddr, 8)
				applyBoth(t, c, ref, Rec{Kind: RecLoad, Op: isa.OpLd, Dest: isa.RegArg0 + 1, Size: 8, Addr: dataAddr})
				c.OnSpawn(0, 1)
				ref.OnSpawn(0, 1)
				sameState(t, c.State, ref)
				if c.Checking() == unsafe {
					t.Errorf("unsafe=%v: strong checks %v after spawn", unsafe, c.Checking())
				}
				if !c.regs(1).taint[isa.RegArg0] {
					t.Errorf("unsafe=%v: child argument taint not inherited", unsafe)
				}
			}
		})
	}
}
