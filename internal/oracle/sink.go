package oracle

import (
	"fmt"
	"strings"
	"sync/atomic"

	"shift/internal/isa"
	"shift/internal/machine"
)

// SinkChecker is the sink-granular checker. It applies each retired
// instruction's record to the shadow state as it retires, on the
// execution goroutine, exactly as the lockstep oracle does. The
// difference is where the strong cross-checks run: the register-equality
// check and the bitmap sweep run only at policy sinks (syscalls, taken
// chk.s recoveries, host effects on guest memory, sink verdicts) and at
// Finish, not at every original-instruction boundary. The mechanical NaT
// rules and the NaT-implies-taint check keep per-record granularity, so
// a record-level divergence is reported at the retiring instruction. See
// DESIGN.md §4c for why the verdicts agree with the lockstep oracle.
//
// It implements machine.StepHook and the shift package's HostEffects and
// SinkSyncer interfaces. Every method must be called from the execution
// goroutine; only Stats may be read concurrently.
type SinkChecker struct {
	st  *State
	enc Encoder
	rec Rec // the instruction in flight, encoded

	records uint64 // records applied, published to Stats at each sink
	failure *Divergence

	Stats SinkStats
}

// SinkStats are the checker's counters. They are published at sinks and
// at Finish, so metrics may read them while a run is in flight.
type SinkStats struct {
	Records    atomic.Uint64 // retirement records applied
	Drains     atomic.Uint64 // sinks reached
	UnitChecks atomic.Uint64 // bitmap unit comparisons at sinks
	Sweeps     atomic.Uint64 // syscall/final bitmap sweeps
	// Stalls is always 0: records are applied as they retire, so
	// execution never waits for the checker. It is kept because the
	// benchmark's per-request series (tagpipe.stalls_per_req) read it.
	Stalls atomic.Uint64
}

// NewSinkChecker builds a sink-granular checker for cfg.
func NewSinkChecker(cfg Config) *SinkChecker {
	return &SinkChecker{st: NewState(cfg), enc: Encoder{Instrumented: cfg.Instrumented}}
}

// Attach installs the checker as the machine's step hook.
func (c *SinkChecker) Attach(m *machine.Machine) {
	m.Hook = c
}

// Divergence returns the first divergence found, or nil.
func (c *SinkChecker) Divergence() *Divergence { return c.failure }

// PreStep implements machine.StepHook: capture the pre-state the record
// needs.
func (c *SinkChecker) PreStep(m *machine.Machine, ins *isa.Instruction) {
	c.enc.Capture(m, ins)
}

// PostStep implements machine.StepHook: encode the retired instruction
// and apply its record at once. Syscalls and taken chk.s recoveries are
// sinks.
func (c *SinkChecker) PostStep(m *machine.Machine, ins *isa.Instruction) error {
	switch ins.Op {
	case isa.OpSyscall:
		return c.syscallBoundary(m, ins)
	case isa.OpChkS:
		// A taken recovery rendered its policy verdict (alert vs
		// recover) during the branch: count it as a sink.
		if !c.enc.Squashed() && m.NaT[ins.Src1] {
			c.drain()
		}
		return nil
	}
	if c.enc.Squashed() || !c.enc.Encode(m, ins, &c.rec) {
		return nil
	}
	c.records++
	if d := c.st.Apply(&c.rec); d != nil {
		return c.fail(m, ins.String(), d)
	}
	return nil
}

// syscallBoundary is the main sink: the boundary checks the oracle runs
// at a syscall (register check skipping r8, full bitmap sweep for
// non-squashed calls), then the syscall's own record.
func (c *SinkChecker) syscallBoundary(m *machine.Machine, ins *isa.Instruction) error {
	c.drain()
	if c.st.Checking() && ins.Class == isa.ClassOrig {
		if d := c.sinkChecks(m, int(isa.RegRet), !c.enc.Squashed()); d != nil {
			return c.fail(m, ins.String(), d)
		}
	}
	if c.enc.Squashed() {
		return nil
	}
	c.enc.Encode(m, ins, &c.rec)
	if d := c.st.Apply(&c.rec); d != nil {
		return c.fail(m, ins.String(), d)
	}
	return nil
}

// Finish runs the final sink checks (register check and bitmap sweep)
// after a clean halt, mirroring Oracle.Finish. Call it once execution
// has halted without a trap.
func (c *SinkChecker) Finish(m *machine.Machine) error {
	c.drain()
	if c.failure != nil {
		return c.failure
	}
	if !c.st.Checking() {
		return nil
	}
	if d := c.sinkChecks(m, -1, true); d != nil {
		return c.fail(m, "finish", d)
	}
	return nil
}

// sinkChecks runs the sink's register cross-check, skipping register
// skip, and then, if sweep is set, the full bitmap sweep, counting it.
func (c *SinkChecker) sinkChecks(m *machine.Machine, skip int, sweep bool) *Divergence {
	if _, d := c.st.CheckRegs(m, skip); d != nil || !sweep {
		return d
	}
	c.Stats.Sweeps.Add(1)
	n, d := c.st.Sweep(m)
	c.Stats.UnitChecks.Add(n)
	return d
}

// drain marks a sink: the shadow state is already current, so all that
// is left is counting it and publishing the record count.
func (c *SinkChecker) drain() {
	c.Stats.Drains.Add(1)
	c.Stats.Records.Store(c.records)
}

// fail records the first divergence, found at instruction ins, with a
// snapshot of the machine and shadow state, and returns it as the error
// PostStep hands to the machine.
func (c *SinkChecker) fail(m *machine.Machine, ins string, d *Divergence) error {
	if c.failure == nil {
		d.Ins = ins
		var b strings.Builder
		fmt.Fprintf(&b, "  tid=%d pc=%d retired=%d cycles=%d halted=%v (sink-granular)\n",
			m.TID, m.PC, m.Retired, m.Cycles, m.Halted)
		c.st.WriteRegs(&b, m)
		d.Snapshot = b.String()
		c.failure = d
		c.Stats.Records.Store(c.records)
	}
	return c.failure
}

// Host effects are sinks: the OS model touches guest state mid-syscall,
// and the effect lands on the shadow exactly where it falls in
// retirement order.

// HostWrite records that the OS wrote n bytes of host data at addr.
func (c *SinkChecker) HostWrite(addr uint64, n int) {
	if n <= 0 {
		return
	}
	c.drain()
	c.st.HostWrite(addr, n)
}

// HostTaint records that the OS marked [addr, addr+n) as a taint source.
func (c *SinkChecker) HostTaint(addr, n uint64) {
	if n == 0 {
		return
	}
	c.drain()
	c.st.HostTaint(addr, n)
}

// HostUntaint records that the OS explicitly cleared tags over
// [addr, addr+n).
func (c *SinkChecker) HostUntaint(addr, n uint64) {
	if n == 0 {
		return
	}
	c.drain()
	c.st.HostUntaint(addr, n)
}

// OnSpawn applies the spawn rule; under UnsafePreempt the strong checks
// stand down from the first spawn, as in the oracle.
func (c *SinkChecker) OnSpawn(parentTID, childTID int) {
	c.drain()
	c.st.OnSpawn(parentTID, childTID)
}

// SyncSink implements the shift package's SinkSyncer: a policy check is
// about to render a verdict.
func (c *SinkChecker) SyncSink() { c.drain() }
