package tagpipe

import (
	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/oracle"
)

// The producer: machine.StepHook plus the shift package's host-effect
// notifications. Everything here runs on the execution goroutine. The
// records come from the oracle package's encoder, the same one the
// lockstep oracle uses; the difference is that they go into the ring
// instead of being applied at once.

// PreStep captures the pre-state the record needs.
func (p *Pipeline) PreStep(m *machine.Machine, ins *isa.Instruction) {
	p.enc.Capture(m, ins)
}

// PostStep encodes the retired instruction and emits the record.
// Syscalls and taken chk.s recoveries are policy sinks and synchronize
// instead.
func (p *Pipeline) PostStep(m *machine.Machine, ins *isa.Instruction) error {
	if p.failed.Load() {
		return p.failureErr(m)
	}
	if ins.Op == isa.OpSyscall {
		return p.syscallBoundary(m, ins)
	}
	if ins.Op == isa.OpChkS {
		if !p.enc.Squashed() && m.NaT[ins.Src1] {
			// Taken recovery: the policy verdict (alert vs recover) was
			// rendered during the branch — drain so it stood on fully
			// propagated state, and surface any failure it exposed.
			p.drain()
			return p.failureErr(m)
		}
		return nil
	}
	if p.enc.Squashed() {
		return nil
	}
	if p.enc.Encode(m, ins, p.slot()) {
		p.push()
	}
	return nil
}

// syscallBoundary is the main sink: drain the ring, run the boundary
// checks the oracle runs at a syscall (register sweep skipping r8, full
// bitmap sweep for non-squashed calls), then apply the syscall's own
// record directly to the committed state.
func (p *Pipeline) syscallBoundary(m *machine.Machine, ins *isa.Instruction) error {
	p.drain()
	if err := p.failureErr(m); err != nil {
		return err
	}
	if p.st.Checking() && ins.Class == isa.ClassOrig {
		if d := p.sinkChecks(m, int(isa.RegRet), !p.enc.Squashed()); d != nil {
			return p.latchErr(m, ins.String(), d)
		}
	}
	if p.enc.Squashed() {
		return nil
	}
	var r oracle.Rec
	p.enc.Encode(m, ins, &r)
	if d := p.st.Apply(&r); d != nil {
		return p.latchErr(m, ins.String(), d)
	}
	return nil
}

// Host effects are synchronous: the OS model touches guest state
// mid-syscall, so the pipeline drains and applies the effect directly to
// the committed shadow — exactly where it falls in retirement order.

// HostWrite records that the OS wrote n bytes of host data at addr.
// Tags are sticky under SHIFT's OS model; a hidden unit the OS
// overwrites adopts its bitmap bit once and is checked from then on.
func (p *Pipeline) HostWrite(addr uint64, n int) {
	if n <= 0 {
		return
	}
	p.drain()
	p.st.HostWrite(addr, n)
}

// HostTaint records that the OS marked [addr, addr+n) as a taint source.
func (p *Pipeline) HostTaint(addr, n uint64) {
	if n == 0 {
		return
	}
	p.drain()
	p.st.HostTaint(addr, n)
}

// HostUntaint records that the OS explicitly cleared tags over
// [addr, addr+n).
func (p *Pipeline) HostUntaint(addr, n uint64) {
	if n == 0 {
		return
	}
	p.drain()
	p.st.HostUntaint(addr, n)
}

// OnSpawn records a thread creation: the child inherits its argument
// taint from the parent's argument slot. Under UnsafePreempt the strong
// checks stand down from the first spawn, as in the oracle.
func (p *Pipeline) OnSpawn(parentTID, childTID int) {
	p.drain()
	p.st.OnSpawn(parentTID, childTID)
}

// SyncSink implements the shift package's sink synchronization: a
// policy check is about to render a verdict, so the ring must be empty.
func (p *Pipeline) SyncSink(m *machine.Machine, sink string) error {
	p.drain()
	return p.failureErr(m)
}
