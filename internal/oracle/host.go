package oracle

import "shift/internal/isa"

// The methods below implement the shift package's HostEffects interface:
// the OS model reports its direct effects on guest state so the shadow
// can mirror them and then cross-check the bitmap's view of them.

// HostWrite records that the OS wrote n bytes of host data at addr
// (read(2)-style transfers, getarg strings). SHIFT's OS model leaves
// tags sticky — a host write never changes the bitmap, and explicit
// sources arrive separately via HostTaint — so the shadow keeps its own
// taint for the touched units and the syscall-boundary sweep verifies
// the bitmap really did stay put. A unit whose last writer bypassed the
// bitmap by design (a spill slot) loses that exemption the moment the
// OS overwrites it: its bitmap bit is adopted once, and from then on it
// is checked like any other unit.
func (o *Oracle) HostWrite(addr uint64, n int) {
	o.mem.HostWrite(o.cfg.Tags, addr, n)
}

// HostTaint records that the OS marked [addr, addr+n) as a taint source.
func (o *Oracle) HostTaint(addr, n uint64) { o.mem.HostTaint(addr, n) }

// HostUntaint records that the OS explicitly cleared tags over
// [addr, addr+n) (the taint-control syscall).
func (o *Oracle) HostUntaint(addr, n uint64) { o.mem.HostUntaint(addr, n) }

// OnSpawn records a thread creation. The child inherits the taint of its
// argument register from the parent's argument slot. Under the default
// tag-coherent scheduling, every instrumentation block retires whole
// before a sibling thread runs, so the strong cross-checks remain sound
// in fully multithreaded runs and nothing stands down. Only under
// Config.UnsafePreempt — where a slice may end inside a
// store-to-tag-update window (the §4.4 atomicity gap under study) — do
// bitmap and register-equality comparisons stop from the first spawn
// onward, leaving the thread-local NaT-rule checks.
func (o *Oracle) OnSpawn(parentTID, childTID int) {
	parent := o.regs(parentTID)
	child := o.regs(childTID)
	child.taint[isa.RegArg0] = parent.taint[isa.RegArg0+1]
	if o.cfg.UnsafePreempt {
		o.concurrent = true
		o.pending = o.pending[:0]
	}
}
