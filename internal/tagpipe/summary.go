package tagpipe

import "shift/internal/oracle"

// The symbolic summary machinery: a worker turns a segment of records
// into a transfer function over taint state — for every location the
// segment writes, its final taint expressed as a function of the
// segment's *input* state — so N workers can summarize N segments
// concurrently while a single committer applies the summaries in
// retirement order. This is the parallel-prefix decomposition of an
// inherently sequential dataflow: composition happens at the committer,
// which only evaluates (cheap), never re-propagates (expensive).

// locKind distinguishes the shadow location spaces.
type locKind uint8

const (
	locReg locKind = iota // one thread's general register
	locCcv                // one thread's ar.ccv shadow
	locMem                // one tracked memory unit
)

// loc names one shadow taint location. Comparable, so it keys the
// summary maps directly.
type loc struct {
	kind locKind
	tid  int32
	reg  uint8
	unit uint64
}

// maxDeps bounds a symbolic value's dependency list. A value that would
// exceed it makes the whole segment fall back to direct application —
// correctness never depends on the symbolic form.
const maxDeps = 12

// sym is a symbolic taint value: definitely tainted (t), or the OR of
// the segment-input taints of deps (empty deps = definitely clean).
type sym struct {
	t    bool
	deps []loc
}

// or returns a ∨ b, reporting overflow of the dependency bound.
func (a sym) or(b sym) (sym, bool) {
	if a.t || b.t {
		return sym{t: true}, true
	}
	out := sym{deps: make([]loc, 0, len(a.deps)+len(b.deps))}
	out.deps = append(out.deps, a.deps...)
	for _, d := range b.deps {
		dup := false
		for _, e := range out.deps {
			if e == d {
				dup = true
				break
			}
		}
		if !dup {
			out.deps = append(out.deps, d)
		}
	}
	if len(out.deps) > maxDeps {
		return sym{}, false
	}
	return out, true
}

// outVal is one summarized output: the location's final symbolic taint
// and, for memory units, the hidden flag its last writer left.
type outVal struct {
	v      sym
	hidden bool
	isMem  bool
}

// check is one deferred correctness check, pinned to its record index so
// the committer reproduces the exact first-divergence order of the
// direct path.
type check struct {
	idx int
	// d is an unconditional failure (a broken mechanical NaT rule) found
	// during summarization; nil for conditional suspects.
	d *oracle.Divergence
	// For conditional suspects (NaT set on an original register): the
	// register's symbolic taint right after the record; the check fails
	// when it evaluates clean.
	val     sym
	suspect *rec
}

// summary is a worker's product for one segment.
type summary struct {
	outs   map[loc]outVal
	checks []check
}

// summarize computes seg's transfer function over units of the given
// size. ok is false when any value overflowed the dependency bound, in
// which case the committer applies the raw records instead.
func summarize(seg *segment, unit uint64) (s *summary, ok bool) {
	defs := make(map[loc]outVal, len(seg.recs)/2+1)
	s = &summary{}

	resolve := func(l loc) sym {
		if v, have := defs[l]; have {
			return v.v
		}
		return sym{deps: []loc{l}}
	}
	regOf := func(tid int32, r uint8) sym {
		if r == 0 {
			return sym{}
		}
		return resolve(loc{kind: locReg, tid: tid, reg: r})
	}
	setReg := func(tid int32, r uint8, v sym) {
		if r == 0 {
			return
		}
		defs[loc{kind: locReg, tid: tid, reg: r}] = outVal{v: v}
	}

	for i := range seg.recs {
		r := &seg.recs[i]
		natAfter := r.flags&fNatAfter != 0

		loadSym := func(addr uint64, size int) (sym, bool) {
			v := sym{}
			for _, u := range unitsOf(addr, size, unit) {
				var o bool
				v, o = v.or(resolve(loc{kind: locMem, unit: u}))
				if !o {
					return sym{}, false
				}
			}
			return v, true
		}
		setMemSym := func(addr uint64, size int, v sym, auth bool) {
			for _, u := range unitsOf(addr, size, unit) {
				defs[loc{kind: locMem, unit: u}] = outVal{v: v, hidden: !auth, isMem: true}
			}
		}

		switch r.kind {
		case rUnion2:
			v, o := regOf(r.tid, r.s1).or(regOf(r.tid, r.s2))
			if !o {
				return nil, false
			}
			setReg(r.tid, r.dest, v)
		case rCopy:
			setReg(r.tid, r.dest, regOf(r.tid, r.s1))
		case rClear:
			setReg(r.tid, r.dest, sym{})
		case rLoad:
			if r.dest != 0 && natAfter {
				s.checks = append(s.checks, check{idx: i, d: div(r, oracle.DivNaTRule, r.dest, true, false)})
				return s, true // nothing after the failure can be observed
			}
			v, o := loadSym(r.addr, int(r.size))
			if !o {
				return nil, false
			}
			setReg(r.tid, r.dest, v)
		case rLoadSpec:
			deferred := r.flags&fDeferred != 0
			if r.dest != 0 && natAfter != deferred {
				s.checks = append(s.checks, check{idx: i, d: div(r, oracle.DivNaTRule, r.dest, natAfter, deferred)})
				return s, true
			}
			// Deferral token == taint (see the oracle's OpLdS rule).
			v := sym{t: true}
			if !deferred {
				var o bool
				v, o = loadSym(r.addr, int(r.size))
				if !o {
					return nil, false
				}
			}
			setReg(r.tid, r.dest, v)
		case rLoadFill:
			v, o := loadSym(r.addr, 8)
			if !o {
				return nil, false
			}
			setReg(r.tid, r.dest, v)
		case rStore:
			setMemSym(r.addr, int(r.size), regOf(r.tid, r.s2), r.flags&fAuth != 0)
		case rCmpxchg:
			if r.dest != 0 && natAfter {
				s.checks = append(s.checks, check{idx: i, d: div(r, oracle.DivNaTRule, r.dest, true, false)})
				return s, true
			}
			old, o := loadSym(r.addr, int(r.size))
			if !o {
				return nil, false
			}
			if r.flags&fCommitted != 0 {
				setMemSym(r.addr, int(r.size), regOf(r.tid, r.s2), r.flags&fAuth != 0)
			}
			setReg(r.tid, r.dest, old)
		case rCcvSet:
			defs[loc{kind: locCcv, tid: r.tid}] = outVal{v: regOf(r.tid, r.s1)}
		case rCcvGet:
			setReg(r.tid, r.dest, resolve(loc{kind: locCcv, tid: r.tid}))
		case rNatOnly:
			// No propagation; suspect check below.
		}

		if natAfter && r.dest >= 1 && r.dest < oracle.FirstReservedReg {
			s.checks = append(s.checks, check{idx: i, val: regOf(r.tid, r.dest), suspect: r})
		}
	}
	s.outs = defs
	return s, true
}

// unitsOf lists the tracked units covering [addr, addr+size).
func unitsOf(addr uint64, size int, unit uint64) []uint64 {
	first := addr &^ (unit - 1)
	last := (addr + uint64(size) - 1) &^ (unit - 1)
	units := make([]uint64, 0, (last-first)/unit+1)
	for u := first; ; u += unit {
		units = append(units, u)
		if u == last {
			break
		}
	}
	return units
}

// eval resolves a symbolic value against the committed state.
func (st *state) eval(v sym) bool {
	if v.t {
		return true
	}
	for _, d := range v.deps {
		switch d.kind {
		case locReg:
			if st.regs(d.tid).taint[d.reg] {
				return true
			}
		case locCcv:
			if st.regs(d.tid).ccv {
				return true
			}
		case locMem:
			if st.mem.Load(d.unit, 1) {
				return true
			}
		}
	}
	return false
}

// applySummary composes one summary onto the committed state: run the
// deferred checks in record order (first divergence wins, exactly as the
// direct path would), then evaluate every output against the segment's
// input state and store them two-phase.
func (st *state) applySummary(s *summary) *oracle.Divergence {
	for i := range s.checks {
		c := &s.checks[i]
		if c.d != nil {
			return c.d
		}
		if st.checking && !st.eval(c.val) {
			return div(c.suspect, oracle.DivRegister, c.suspect.dest, true, false)
		}
	}
	type store struct {
		l loc
		o outVal
		t bool
	}
	resolved := make([]store, 0, len(s.outs))
	for l, o := range s.outs {
		resolved = append(resolved, store{l: l, o: o, t: st.eval(o.v)})
	}
	for _, r := range resolved {
		switch r.l.kind {
		case locReg:
			st.regs(r.l.tid).set(r.l.reg, r.t)
		case locCcv:
			st.regs(r.l.tid).ccv = r.t
		case locMem:
			st.mem.Set(r.l.unit, 1, r.t, !r.o.hidden)
		}
	}
	return nil
}
