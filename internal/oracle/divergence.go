// Package oracle implements a host-side reference DIFT engine that runs
// alongside the simulated machine and cross-checks SHIFT's NaT/bitmap
// tag machinery against plain shadow-taint interpretation.
//
// The engine keeps an explicit taint bit per general register (per
// thread) and per tracked memory unit, propagated by direct
// interpretation of each retired instruction — with none of the
// NaT/spill/UNAT machinery the instrumented program uses. Where the two
// representations must agree (register NaT bits at original-instruction
// boundaries, the region-0 tag bitmap after stores, spills and at
// syscalls), any disagreement is reported as a Divergence carrying a
// machine snapshot. HardTaint (arXiv:2402.17241) validates selective
// hardware tracing against exactly this kind of full software oracle;
// this package gives the SHIFT reproduction the same safety net.
//
// There is one checker, Checker, over one shadow State and one set of
// transfer rules, run at one of two granularities. At Boundary it
// cross-checks at every original-instruction boundary (the lockstep
// strict/debug mode); at Sink it applies the same records as they retire
// but runs the register and bitmap cross-checks only at syscalls and at
// the end of the run.
package oracle

import "fmt"

// DivergenceKind classifies what disagreed.
type DivergenceKind uint8

// Divergence kinds.
const (
	// DivRegister: a register's NaT bit disagrees with the oracle's
	// shadow taint at an original-instruction boundary.
	DivRegister DivergenceKind = iota
	// DivBitmap: a tag-bitmap bit disagrees with the oracle's shadow
	// taint for a memory unit.
	DivBitmap
	// DivNaTRule: the machine's mechanical NaT behaviour broke one of
	// its own rules (a plain load left NaT set, or a speculative load's
	// defer decision disagrees with an independent recomputation).
	DivNaTRule
)

// String names the kind.
func (k DivergenceKind) String() string {
	switch k {
	case DivRegister:
		return "register-nat-vs-shadow"
	case DivBitmap:
		return "bitmap-vs-shadow"
	case DivNaTRule:
		return "nat-rule"
	}
	return fmt.Sprintf("divergence(%d)", uint8(k))
}

// Divergence is the first disagreement found between the machine's tag
// state and the oracle's reference shadow. It implements error and is
// carried inside a machine.TrapOracle trap.
type Divergence struct {
	Kind DivergenceKind
	TID  int
	PC   int
	Ins  string // disassembly of the instruction being retired

	Reg     uint8  // diverging register (DivRegister / DivNaTRule)
	Addr    uint64 // diverging unit address (DivBitmap)
	Machine bool   // what the machine's tag state says
	Shadow  bool   // what the oracle's shadow says

	Snapshot string // register/NaT/shadow dump at detection time
}

// Error implements the error interface.
func (d *Divergence) Error() string {
	var where string
	switch d.Kind {
	case DivBitmap:
		where = fmt.Sprintf("unit %#x", d.Addr)
	default:
		where = fmt.Sprintf("r%d", d.Reg)
	}
	return fmt.Sprintf("oracle divergence (%s) at tid=%d pc=%d [%s]: %s machine=%v shadow=%v\n%s",
		d.Kind, d.TID, d.PC, d.Ins, where, d.Machine, d.Shadow, d.Snapshot)
}
