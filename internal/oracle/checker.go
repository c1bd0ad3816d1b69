package oracle

import (
	"fmt"
	"strings"
	"sync/atomic"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/taint"
)

// firstReservedReg is the first instrumentation-reserved register.
// Original-program registers are r1..r118: r119..r127 are reserved by the
// instrumentation pass (scratch, kept mask, NaT source) and are routinely
// NaT'd or laundered, so they carry no reference-taint meaning.
const firstReservedReg = 119

// Config selects what a checker checks.
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

// Granularity says where a Checker runs its strong cross-checks: the
// register NaT-vs-shadow check, the store-unit checks and the bitmap
// sweep. Records are applied as they retire at either granularity, and
// the mechanical NaT rules and the NaT-implies-taint check run on every
// record.
type Granularity uint8

const (
	// Boundary checks at every original-instruction boundary: the
	// lockstep strict/debug mode (shift.Options.Oracle).
	Boundary Granularity = iota
	// Sink checks only at syscalls and at Finish: the sink-granular mode
	// (shift.Options.Decoupled). See DESIGN.md §4c for why its verdicts
	// agree with Boundary's.
	Sink
)

// String names the granularity.
func (g Granularity) String() string {
	if g == Sink {
		return "sink"
	}
	return "boundary"
}

// Stats are a checker's counters. They build up in plain fields and are
// published here at every sink, at the first divergence and when the run
// ends (Finish or Publish), so metrics may read them while a run is in
// flight.
type Stats struct {
	Steps      atomic.Uint64 // instructions observed
	RegChecks  atomic.Uint64 // register comparisons
	UnitChecks atomic.Uint64 // bitmap unit comparisons
	Sweeps     atomic.Uint64 // syscall/final bitmap sweeps
	Records    atomic.Uint64 // retirement records applied
	Drains     atomic.Uint64 // sinks reached
	// Stalls is always 0: records are applied as they retire, so
	// execution never waits for the checker. It is kept because the
	// benchmark's per-request series (tagpipe.stalls_per_req) read it.
	Stalls atomic.Uint64
}

// counts are the unpublished counters behind Stats.
type counts struct {
	steps, regChecks, unitChecks, sweeps, records, drains uint64
}

// Checker is the reference DIFT engine. It implements machine.StepHook:
// each retired instruction is encoded into a taint record and applied to
// the shadow State at once, on the execution goroutine. Its granularity
// sets when the strong cross-checks run. It also mirrors the OS model's
// host effects (HostWrite, HostTaint, HostUntaint, OnSpawn); those and
// policy verdicts (SyncSink) are sinks. Every method must be called from
// the execution goroutine; only Stats may be read concurrently.
type Checker struct {
	*State

	gran    Granularity
	enc     Encoder
	rec     Rec      // the instruction in flight, encoded
	pending []uint64 // Boundary: units awaiting a bitmap check at the next boundary

	n       counts
	failure *Divergence
	Stats   Stats
}

// New builds a checker at granularity g. Install it as the machine's
// step hook (machine.Machine.Hook), and notify it of the OS model's host
// effects.
func New(cfg Config, g Granularity) *Checker {
	return &Checker{State: NewState(cfg), gran: g, enc: Encoder{Instrumented: cfg.Instrumented}}
}

// Divergence returns the first divergence found, or nil.
func (c *Checker) Divergence() *Divergence { return c.failure }

// PreStep implements machine.StepHook: capture the pre-state the record
// needs.
func (c *Checker) PreStep(m *machine.Machine, ins *isa.Instruction) {
	c.enc.Capture(m, ins)
}

// PostStep implements machine.StepHook: run the strong cross-checks when
// this instruction is a check point, then apply its record. Squashed
// instructions retired without effect and have no record to apply.
func (c *Checker) PostStep(m *machine.Machine, ins *isa.Instruction) error {
	c.n.steps++
	if c.gran == Boundary || ins.Op == isa.OpSyscall || ins.Op == isa.OpChkS {
		if err := c.checkPoint(m, ins); err != nil {
			return err
		}
	}
	if c.enc.Squashed() || !c.enc.Encode(m, ins, &c.rec) {
		return nil
	}
	c.n.records++
	if d := c.Apply(&c.rec); d != nil {
		return c.fail(m, ins, d)
	}
	// An authoritative store is followed by its tag update before the
	// next original instruction: check its units there.
	if r := &c.rec; c.gran == Boundary && r.Flags&FlagAuth != 0 &&
		(r.Kind == RecStore || r.Flags&FlagCommitted != 0) && c.Checking() {
		c.queue(r.Addr, int(r.Size))
	}
	return nil
}

// checkPoint handles an instruction that may be a sink or a check point,
// before its record is applied. Syscalls and taken chk.s recoveries are
// sinks: a taken recovery rendered its policy verdict (alert vs recover)
// during the branch.
//
// An original instruction marks the previous instrumentation block
// complete, so queued tag-update checks and the register check are sound
// there; at Boundary granularity every original instruction is a check
// point, at Sink granularity only a syscall is. The register the
// instruction just wrote is skipped — its own block (the taint add after
// a load) is still open — and covered at the next check point; for a
// syscall that is r8. A non-squashed syscall also sweeps the bitmap: the
// OS model has read guest memory and mirrored its writes.
func (c *Checker) checkPoint(m *machine.Machine, ins *isa.Instruction) error {
	squashed := c.enc.Squashed()
	syscall := ins.Op == isa.OpSyscall
	if syscall || (ins.Op == isa.OpChkS && !squashed && m.NaT[ins.Src1]) {
		c.drain()
	}
	if (c.gran == Sink && !syscall) || !c.Checking() || ins.Class != isa.ClassOrig {
		return nil
	}
	skip := -1
	if c.enc.Encode(m, ins, &c.rec) && c.rec.WritesDest() {
		skip = int(c.rec.Dest)
	}
	return c.check(m, ins, skip, syscall && !squashed)
}

// Finish is the last sink: it runs the closing register check and
// bitmap sweep after a clean halt and publishes the counters. Call it
// once execution has halted without a trap; after a trap, call Publish.
func (c *Checker) Finish(m *machine.Machine) error {
	c.n.drains++
	defer c.Publish()
	if c.failure != nil {
		return c.failure
	}
	if !c.Checking() {
		return nil
	}
	return c.check(m, nil, -1, true)
}

// queue schedules the units an authoritative store covered for a bitmap
// cross-check at the next original-instruction boundary.
func (c *Checker) queue(addr uint64, size int) {
	unit := c.mem.UnitBytes()
	for u := c.mem.UnitOf(addr); u < c.mem.UnitOf(addr+uint64(size)-1)+unit; u += unit {
		c.pending = append(c.pending, u)
	}
}

// check runs the strong cross-checks at instruction ins (nil at Finish):
// the queued unit checks, the register check skipping register skip,
// and, if sweep is set, the full bitmap sweep.
func (c *Checker) check(m *machine.Machine, ins *isa.Instruction, skip int, sweep bool) error {
	for _, u := range c.pending {
		bit, err := c.cfg.Tags.PeekUnit(u)
		if err != nil {
			// The unit is not representable in the bitmap (red-zone or
			// host ranges outside mapped tag space never are in
			// practice); nothing to compare.
			continue
		}
		c.n.unitChecks++
		if sh := c.mem.Load(u, 1); bit != sh {
			return c.fail(m, ins, &Divergence{Kind: DivBitmap, TID: m.TID, PC: m.PC, Addr: u, Machine: bit, Shadow: sh})
		}
	}
	c.pending = c.pending[:0]
	n, d := c.CheckRegs(m, skip)
	c.n.regChecks += n
	if d == nil && sweep {
		c.n.sweeps++
		n, d = c.Sweep(m)
		c.n.unitChecks += n
	}
	if d != nil {
		return c.fail(m, ins, d)
	}
	return nil
}

// fail records the first divergence, found at instruction ins (nil at
// Finish), with a snapshot of the machine and shadow state, and returns
// it as the error PostStep hands to the machine. The strong checks stand
// down from then on.
func (c *Checker) fail(m *machine.Machine, ins *isa.Instruction, d *Divergence) error {
	if c.failure == nil {
		d.Ins = c.insName(ins)
		d.Snapshot = c.snapshot(m)
		c.failure = d
		c.strong = false
		c.Publish()
	}
	return c.failure
}

// insName disassembles ins for a report. A Finish-time report names
// "nop" at Boundary granularity (the final boundary check runs on one)
// and "finish" at Sink granularity.
func (c *Checker) insName(ins *isa.Instruction) string {
	switch {
	case ins != nil:
		return ins.String()
	case c.gran == Sink:
		return "finish"
	}
	return "nop"
}

// snapshot renders the machine and shadow state for the report: every
// register that is non-zero, NaT'd or shadow-tainted, one per line.
func (c *Checker) snapshot(m *machine.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  tid=%d pc=%d retired=%d cycles=%d halted=%v",
		m.TID, m.PC, m.Retired, m.Cycles, m.Halted)
	if c.gran == Sink {
		b.WriteString(" (sink-granular)\n")
	} else {
		fmt.Fprintf(&b, "\n  UNAT=%#x CCV=%#x\n", m.UNAT, m.CCV)
	}
	c.WriteRegs(&b, m)
	if n := len(c.pending); n > 0 {
		fmt.Fprintf(&b, "  pending unit checks: %d\n", n)
	}
	return b.String()
}

// drain marks a sink: the shadow state is already current, so all that
// is left is counting it and publishing the counters.
func (c *Checker) drain() {
	c.n.drains++
	c.Publish()
}

// Publish stores the counters into Stats. A run that ends in a trap (an
// alert, a divergence, budget expiry) calls it in place of Finish.
func (c *Checker) Publish() {
	c.Stats.Steps.Store(c.n.steps)
	c.Stats.RegChecks.Store(c.n.regChecks)
	c.Stats.UnitChecks.Store(c.n.unitChecks)
	c.Stats.Sweeps.Store(c.n.sweeps)
	c.Stats.Records.Store(c.n.records)
	c.Stats.Drains.Store(c.n.drains)
}

// Host effects are sinks: the OS model touches guest state mid-syscall,
// and the effect lands on the shadow exactly where it falls in
// retirement order. Empty effects are no sinks.

// HostWrite records that the OS wrote n bytes of host data at addr.
func (c *Checker) HostWrite(addr uint64, n int) {
	if n <= 0 {
		return
	}
	c.drain()
	c.State.HostWrite(addr, n)
}

// HostTaint records that the OS marked [addr, addr+n) as a taint source.
func (c *Checker) HostTaint(addr, n uint64) {
	if n == 0 {
		return
	}
	c.drain()
	c.State.HostTaint(addr, n)
}

// HostUntaint records that the OS explicitly cleared tags over
// [addr, addr+n).
func (c *Checker) HostUntaint(addr, n uint64) {
	if n == 0 {
		return
	}
	c.drain()
	c.State.HostUntaint(addr, n)
}

// OnSpawn applies the spawn rule to the shadow and, if that made the
// strong checks stand down (Config.UnsafePreempt), drops the queued unit
// checks: they will never run.
func (c *Checker) OnSpawn(parentTID, childTID int) {
	c.drain()
	c.State.OnSpawn(parentTID, childTID)
	if !c.Checking() {
		c.pending = c.pending[:0]
	}
}

// SyncSink marks a policy check about to render a verdict.
func (c *Checker) SyncSink() { c.drain() }
