package tagpipe

import (
	"math/rand"
	"testing"

	"shift/internal/isa"
	"shift/internal/oracle"
	"shift/internal/shadow"
	"shift/internal/taint"
)

// makeRandomRecs builds a producer-faithful random record stream: the
// field combinations are the ones hook.go can actually emit (fNatAfter
// only on dest-writing kinds, fDeferred only on rLoadSpec, addresses
// drawn from a small pool so segment summaries overlap heavily).
func makeRandomRecs(n int, seed int64) []rec {
	rng := rand.New(rand.NewSource(seed))
	addrs := []uint64{0x100, 0x104, 0x108, 0x110, 0x118, 0x120}
	sizes := []uint8{1, 2, 4, 8}
	ops := []isa.Opcode{isa.OpAdd, isa.OpMov, isa.OpMovl, isa.OpLd, isa.OpLdS,
		isa.OpLdFill, isa.OpSt, isa.OpCmpxchg, isa.OpMovToCcv, isa.OpMovFromCcv, isa.OpSetNat}
	recs := make([]rec, 0, n)
	for i := 0; i < n; i++ {
		r := rec{
			op:   ops[rng.Intn(len(ops))],
			dest: uint8(rng.Intn(14)),
			s1:   uint8(rng.Intn(14)),
			s2:   uint8(rng.Intn(14)),
			size: sizes[rng.Intn(len(sizes))],
			tid:  int32(rng.Intn(3)),
			pc:   int32(i),
			addr: addrs[rng.Intn(len(addrs))],
		}
		switch rng.Intn(10) {
		case 0:
			r.kind = rClear
		case 1:
			r.kind = rCopy
		case 2:
			r.kind = rLoad
		case 3:
			r.kind = rLoadSpec
			if rng.Intn(2) == 0 {
				r.flags |= fDeferred
				r.flags |= fNatAfter // the legal deferred outcome
			}
		case 4:
			r.kind = rLoadFill
			r.size = 8
		case 5:
			r.kind = rStore
			r.dest = 0
			if rng.Intn(2) == 0 {
				r.flags |= fAuth
			}
		case 6:
			r.kind = rCmpxchg
			if rng.Intn(2) == 0 {
				r.flags |= fCommitted
			}
			if rng.Intn(2) == 0 {
				r.flags |= fAuth
			}
		case 7:
			r.kind = rCcvSet
			r.dest = 0
		case 8:
			r.kind = rCcvGet
		default:
			r.kind = rUnion2
		}
		// A sprinkling of NaT-after bits on dest-writing records: some
		// will be backed by shadow taint (pass), some not (the suspect
		// path), some break a mechanical rule (rLoad with NaT).
		if r.kind != rStore && r.kind != rCcvSet && r.dest != 0 && rng.Intn(12) == 0 {
			r.flags |= fNatAfter
		}
		recs = append(recs, r)
	}
	return recs
}

// freshState builds a checking state with unit size 1 and a little
// pre-seeded taint so records have something to propagate.
func freshState(seed int64) *state {
	st := &state{mem: shadow.New(taint.Byte), threads: make(map[int32]*regShadow), checking: true}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for tid := int32(0); tid < 3; tid++ {
		rs := st.regs(tid)
		for r := 1; r < 14; r++ {
			rs.taint[r] = rng.Intn(3) == 0
		}
	}
	for _, a := range []uint64{0x100, 0x104, 0x108, 0x110, 0x118, 0x120} {
		for i := uint64(0); i < 8; i++ {
			if rng.Intn(3) == 0 {
				st.mem.Set(a+i, 1, true, true)
			}
		}
	}
	return st
}

// applyDirect is the reference: records one at a time, first divergence
// wins.
func applyDirect(st *state, recs []rec) *oracle.Divergence {
	for i := range recs {
		if d := st.applyRec(&recs[i]); d != nil {
			return d
		}
	}
	return nil
}

// The symbolic summary path must be indistinguishable from direct
// application: same final state, same first divergence (kind, register,
// record position), across many random streams. This is the property
// that makes worker-count invisible to verdicts.
func TestSummaryParity(t *testing.T) {
	summarized, fellBack := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		recs := makeRandomRecs(64, seed)
		direct := freshState(seed)
		symbolic := freshState(seed)

		dDirect := applyDirect(direct, recs)

		seg := &segment{recs: recs}
		var dSym *oracle.Divergence
		if sum, ok := summarize(seg, symbolic.mem.UnitBytes()); ok {
			summarized++
			dSym = symbolic.applySummary(sum)
		} else {
			fellBack++
			dSym = applyDirect(symbolic, recs)
		}

		if (dDirect == nil) != (dSym == nil) {
			t.Fatalf("seed %d: divergence disagreement: direct=%+v symbolic=%+v", seed, dDirect, dSym)
		}
		if dDirect != nil {
			if dDirect.Kind != dSym.Kind || dDirect.Reg != dSym.Reg || dDirect.PC != dSym.PC || dDirect.TID != dSym.TID {
				t.Fatalf("seed %d: divergence detail: direct=%+v symbolic=%+v", seed, dDirect, dSym)
			}
			continue // post-failure state is unobservable by design
		}
		compareStates(t, direct, symbolic)
	}
	if summarized == 0 {
		t.Fatal("no stream was ever summarized; the symbolic path went untested")
	}
	t.Logf("summarized %d streams, %d dependency-overflow fallbacks", summarized, fellBack)
}

// Long OR-chains overflow the dependency bound and must report !ok
// rather than silently truncating taint flow.
func TestSummaryOverflowFallsBack(t *testing.T) {
	recs := make([]rec, 0, maxDeps+2)
	// r1 |= r2; r1 |= r3; ... — each union adds a fresh input dependency.
	for i := 0; i <= maxDeps; i++ {
		recs = append(recs, rec{kind: rUnion2, op: isa.OpOr, dest: 1, s1: 1, s2: uint8(2 + i), pc: int32(i)})
	}
	if _, ok := summarize(&segment{recs: recs}, 1); ok {
		t.Fatalf("summary of a %d-dependency chain did not overflow", maxDeps+1)
	}
	// One union fewer stays within the bound.
	if _, ok := summarize(&segment{recs: recs[:maxDeps-1]}, 1); !ok {
		t.Fatalf("summary below the bound unexpectedly overflowed")
	}
}

// Word-granularity unit arithmetic: a 4-byte store at an unaligned
// offset covers the same units for the worker and the committer.
func TestUnitsOfAlignment(t *testing.T) {
	got := unitsOf(0x106, 4, 8)
	want := []uint64{0x100, 0x108}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("unitsOf(0x106, 4, 8) = %#x, want %#x", got, want)
	}
	if one := unitsOf(0x100, 1, 1); len(one) != 1 || one[0] != 0x100 {
		t.Fatalf("unitsOf(0x100, 1, 1) = %#x", one)
	}
}
