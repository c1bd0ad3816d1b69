package oracle

import (
	"shift/internal/isa"
	"shift/internal/machine"
)

// PreStep implements machine.StepHook: capture the pre-state the record
// needs.
func (o *Oracle) PreStep(m *machine.Machine, ins *isa.Instruction) {
	o.enc.Capture(m, ins)
}

// PostStep implements machine.StepHook: run the boundary cross-checks,
// then encode the retired instruction and apply the record to the
// shadow state at once.
func (o *Oracle) PostStep(m *machine.Machine, ins *isa.Instruction) error {
	o.Stats.Steps++
	r := &o.rec
	ok := o.enc.Encode(m, ins, r)
	squashed := o.enc.Squashed()

	// An original instruction marks the previous instrumentation block
	// complete: queued tag-update checks and the register NaT-vs-shadow
	// sweep are sound here. The register this instruction just wrote is
	// skipped — its own block (the taint add after a load) is still
	// open — and is covered at the next boundary.
	if o.Checking() && ins.Class == isa.ClassOrig {
		skip := -1
		if ok && r.WritesDest() {
			skip = int(r.Dest)
		}
		if err := o.flush(m, ins, skip); err != nil {
			return err
		}
		if ins.Op == isa.OpSyscall && !squashed {
			// Syscall boundary: the OS model has read guest memory and
			// mirrored its writes; the whole visible bitmap must agree.
			if err := o.sweep(m, ins); err != nil {
				return err
			}
		}
	}
	if squashed || !ok {
		return nil
	}
	if d := o.Apply(r); d != nil {
		return o.fail(m, ins, *d)
	}
	// An authoritative store is followed by its tag update before the
	// next original instruction: check its units there.
	if r.Flags&FlagAuth != 0 && (r.Kind == RecStore || r.Flags&FlagCommitted != 0) && o.Checking() {
		o.queue(r.Addr, int(r.Size))
	}
	return nil
}
