package oracle

import (
	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/taint"
)

// firstReservedReg is the first instrumentation-reserved register.
// Original-program registers are r1..r118: r119..r127 are reserved by the
// instrumentation pass (scratch, kept mask, NaT source) and are routinely
// NaT'd or laundered, so they carry no reference-taint meaning.
const firstReservedReg = 119

// Config selects what the checkers check: the lockstep oracle and the
// sink-granular checker, which run on the same State.
type Config struct {
	// Tags is the tag bitmap under test; nil disables all bitmap
	// cross-checks (e.g. a bare machine run with no tag space).
	Tags *taint.Space
	// Instrumented states that the guest program maintains the bitmap
	// and register NaT bits as taint tags. When false (a baseline
	// build), only the mechanical NaT-rule checks run: there is no tag
	// state to compare the shadow against.
	Instrumented bool
	// UnsafePreempt mirrors machine.Machine.UnsafePreempt: the scheduler
	// may end a time slice between a data store and its tag update. In
	// that mode the strong cross-checks stand down once a second thread
	// spawns — the §4.4 window really is observable, so bitmap and
	// register comparisons would flag the hazard under test rather than
	// a divergence. Under the default tag-coherent scheduling the checks
	// stay up through fully multithreaded runs.
	UnsafePreempt bool
}

// Stats counts the cross-checks performed, for reporting.
type Stats struct {
	Steps      uint64 // instructions observed
	RegChecks  uint64 // register boundary comparisons
	UnitChecks uint64 // bitmap unit comparisons
	Sweeps     uint64 // syscall/final bitmap sweeps
}

// Oracle is the lockstep reference engine. It implements
// machine.StepHook and, through its State, the shift package's
// HostEffects interface. Each retired instruction is encoded into a
// taint record and applied at once; on top of that the oracle runs the
// strong cross-checks at every original-instruction boundary.
type Oracle struct {
	*State

	enc     Encoder
	rec     Rec      // the instruction in flight, encoded
	pending []uint64 // units awaiting a bitmap check at the next boundary

	failure *Divergence
	Stats   Stats
}

// New builds an oracle. Attach it with Attach (or machine.Machine.Hook),
// and wire it as the world's HostEffects to mirror syscall writes.
func New(cfg Config) *Oracle {
	return &Oracle{State: NewState(cfg), enc: Encoder{Instrumented: cfg.Instrumented}}
}

// Attach installs the oracle as the machine's step hook.
func (o *Oracle) Attach(m *machine.Machine) {
	m.Hook = o
}

// Divergence returns the first divergence found, or nil.
func (o *Oracle) Divergence() *Divergence { return o.failure }

// OnSpawn applies the spawn rule to the shadow and, if that made the
// strong checks stand down (Config.UnsafePreempt), drops the queued unit
// checks: they will never run.
func (o *Oracle) OnSpawn(parentTID, childTID int) {
	o.State.OnSpawn(parentTID, childTID)
	if !o.Checking() {
		o.pending = o.pending[:0]
	}
}

// queue schedules the units an authoritative store covered for a bitmap
// cross-check at the next original-instruction boundary.
func (o *Oracle) queue(addr uint64, size int) {
	unit := o.mem.UnitBytes()
	for u := o.mem.UnitOf(addr); u < o.mem.UnitOf(addr+uint64(size)-1)+unit; u += unit {
		o.pending = append(o.pending, u)
	}
}

// fail records the first divergence (later ones are ignored) and returns
// it as the error PostStep hands to the machine. The strong checks stand
// down from then on.
func (o *Oracle) fail(m *machine.Machine, ins *isa.Instruction, d Divergence) error {
	if o.failure != nil {
		return o.failure
	}
	d.TID = m.TID
	d.PC = m.PC
	d.Ins = ins.String()
	d.Snapshot = o.snapshot(m)
	o.failure = &d
	o.strong = false
	return o.failure
}

// checkUnit compares one unit's bitmap bit against the shadow.
func (o *Oracle) checkUnit(m *machine.Machine, ins *isa.Instruction, u uint64) error {
	bit, err := o.cfg.Tags.PeekUnit(u)
	if err != nil {
		// The unit is not representable in the bitmap (red-zone or
		// host ranges outside mapped tag space never are in practice);
		// nothing to compare.
		return nil
	}
	o.Stats.UnitChecks++
	if sh := o.mem.Load(u, 1); bit != sh {
		return o.fail(m, ins, Divergence{Kind: DivBitmap, Addr: u, Machine: bit, Shadow: sh})
	}
	return nil
}

// flush runs the queued store checks, then (at boundaries) the register
// NaT-vs-shadow sweep, skipping the register the current instruction just
// wrote (its instrumentation block is still open).
func (o *Oracle) flush(m *machine.Machine, ins *isa.Instruction, skip int) error {
	for _, u := range o.pending {
		if err := o.checkUnit(m, ins, u); err != nil {
			return err
		}
	}
	o.pending = o.pending[:0]
	n, d := o.CheckRegs(m, skip)
	o.Stats.RegChecks += n
	if d != nil {
		return o.fail(m, ins, *d)
	}
	return nil
}

// sweep runs the full bitmap sweep and counts it.
func (o *Oracle) sweep(m *machine.Machine, ins *isa.Instruction) error {
	o.Stats.Sweeps++
	n, d := o.Sweep(m)
	o.Stats.UnitChecks += n
	if d != nil {
		return o.fail(m, ins, *d)
	}
	return nil
}

// Finish runs the final bitmap sweep and boundary checks after a clean
// run. Call it once execution has halted without a trap.
func (o *Oracle) Finish(m *machine.Machine) error {
	if o.failure != nil {
		return o.failure
	}
	if !o.Checking() {
		return nil
	}
	nop := isa.Instruction{Op: isa.OpNop}
	if err := o.flush(m, &nop, -1); err != nil {
		return err
	}
	return o.sweep(m, &nop)
}
