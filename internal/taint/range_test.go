package taint

import (
	"testing"

	"shift/internal/mem"
)

func newFullSpace(g Granularity) *Space {
	m := mem.New()
	s := NewSpace(m, g)
	for r := uint64(1); r < 8; r++ {
		m.MapRegion(r, 0)
	}
	return s
}

// Regression: the old walk used `for a := start; a < addr+n; a += unit`,
// and addr+n wraps to a tiny value for addresses near the top of region 7
// (e.g. a negative guest length cast to uint64), so the loop body never
// ran and the taint update was silently skipped. Such ranges must now be
// rejected, and in-range updates near the top must still land.
func TestSetRangeOverflow(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		s := newFullSpace(g)
		top := mem.Addr(7, mem.OffsetMask-15) // 16 bytes below the region top

		// A length that wraps addr+n past zero must error, not no-op.
		if err := s.SetRange(top, ^uint64(0)-7); err == nil {
			t.Errorf("%v: wrapping SetRange succeeded", g)
		}
		if tainted, err := s.Tainted(top, 16); err != nil || tainted {
			t.Errorf("%v: rejected range left taint behind: %v, %v", g, tainted, err)
		}

		// The legitimate range ending exactly at the region top works.
		if err := s.SetRange(top, 16); err != nil {
			t.Fatalf("%v: SetRange at region top: %v", g, err)
		}
		tainted, err := s.Tainted(top, 16)
		if err != nil {
			t.Fatalf("%v: Tainted at region top: %v", g, err)
		}
		if !tainted {
			t.Errorf("%v: taint at top of region 7 was silently dropped", g)
		}
		if n, err := s.CountTainted(top, 16); err != nil || n != 16/s.Gran.UnitBytes() {
			t.Errorf("%v: CountTainted at region top = %d, %v", g, n, err)
		}

		// One byte past the top has unimplemented bits: rejected.
		if err := s.SetRange(top, 17); err == nil {
			t.Errorf("%v: range past the implemented top succeeded", g)
		}
		if _, err := s.Tainted(mem.Addr(7, mem.OffsetMask)+1, 1); err == nil {
			t.Errorf("%v: Tainted with unimplemented start succeeded", g)
		}
	}
}

// Regression: with n == 0 and an unaligned addr, the old walk rounded
// start down to the unit base and the `a < addr+n` bound still admitted
// one iteration at word granularity, tainting (or clearing) a whole
// 8-byte unit for an empty range.
func TestSetRangeZeroLength(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		s := newFullSpace(g)
		addr := mem.Addr(2, 0x1003) // unaligned inside an 8-byte unit

		if err := s.SetRange(addr, 0); err != nil {
			t.Fatalf("%v: empty SetRange: %v", g, err)
		}
		if tainted, err := s.Tainted(addr&^7, 8); err != nil || tainted {
			t.Errorf("%v: empty SetRange tainted the containing unit", g)
		}

		// The symmetric bug: an empty clear must not wipe real taint.
		if err := s.SetRange(addr&^7, 8); err != nil {
			t.Fatal(err)
		}
		if err := s.ClearRange(addr, 0); err != nil {
			t.Fatalf("%v: empty ClearRange: %v", g, err)
		}
		if tainted, _ := s.Tainted(addr&^7, 8); !tainted {
			t.Errorf("%v: empty ClearRange wiped the containing unit", g)
		}

		if n, err := s.CountTainted(addr, 0); err != nil || n != 0 {
			t.Errorf("%v: CountTainted of empty range = %d, %v", g, n, err)
		}
	}
}

// PeekUnit must agree with Tainted and must not disturb the cache model.
func TestPeekUnit(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		s := newFullSpace(g)
		s.Mem.Cache = mem.NewCache(16*1024, 64)
		addr := mem.Addr(3, 0x2345)
		if err := s.SetRange(addr, 1); err != nil {
			t.Fatal(err)
		}
		hits, misses := s.Mem.Cache.Hits, s.Mem.Cache.Misses
		got, err := s.PeekUnit(addr)
		if err != nil || !got {
			t.Errorf("%v: PeekUnit(tainted) = %v, %v", g, got, err)
		}
		if got, err := s.PeekUnit(addr + 8); err != nil || got {
			t.Errorf("%v: PeekUnit(clean) = %v, %v", g, got, err)
		}
		if s.Mem.Cache.Hits != hits || s.Mem.Cache.Misses != misses {
			t.Errorf("%v: PeekUnit perturbed the cache model", g)
		}
		if _, err := s.PeekUnit(mem.Addr(3, 0) | 1<<45); err == nil {
			t.Errorf("%v: PeekUnit with unimplemented bits succeeded", g)
		}
	}
}

// PeekWord must return, bit for bit, what PeekUnit reports for each of
// its 64 units, on plain and shared spaces, and reject misaligned or
// unimplemented bases.
func TestPeekWordMatchesPeekUnit(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		for _, shared := range []bool{false, true} {
			s := newFullSpace(g)
			if shared {
				s.Share()
			}
			unit := g.UnitBytes()
			base := mem.Addr(3, 0x8000)
			for k := uint64(0); k < 3*WordUnits; k++ {
				if k%3 == 0 || k%7 == 0 {
					if err := s.SetRange(base+k*unit, 1); err != nil {
						t.Fatal(err)
					}
				}
			}
			for w := uint64(0); w < 3; w++ {
				wb := base + w*WordUnits*unit
				bits, err := s.PeekWord(wb)
				if err != nil {
					t.Fatalf("%v shared=%v: PeekWord(%#x): %v", g, shared, wb, err)
				}
				for i := uint64(0); i < WordUnits; i++ {
					want, err := s.PeekUnit(wb + i*unit)
					if err != nil {
						t.Fatal(err)
					}
					if got := bits>>i&1 != 0; got != want {
						t.Fatalf("%v shared=%v: word %d bit %d = %v, PeekUnit %v", g, shared, w, i, got, want)
					}
				}
			}
			if _, err := s.PeekWord(base + unit); err == nil {
				t.Errorf("%v: misaligned PeekWord succeeded", g)
			}
			if _, err := s.PeekWord(base | 1<<45); err == nil {
				t.Errorf("%v: PeekWord with unimplemented bits succeeded", g)
			}
		}
	}
}

// The checkers' bitmap reads must leave the guest's software TLB alone:
// no entry filled, no hit or miss counted.
func TestPeeksLeaveTLBAlone(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		s := newFullSpace(g)
		addr := mem.Addr(3, 0x4000)
		if err := s.SetRange(addr, 1); err != nil {
			t.Fatal(err)
		}
		hits, misses := s.Mem.TLBStats()
		for i := 0; i < 4; i++ {
			if _, err := s.PeekUnit(addr); err != nil {
				t.Fatal(err)
			}
			if _, err := s.PeekWord(addr); err != nil {
				t.Fatal(err)
			}
			if _, err := s.PeekUnit(mem.Addr(5, 0x123456)); err != nil {
				t.Fatal(err)
			}
		}
		if h, ms := s.Mem.TLBStats(); h != hits || ms != misses {
			t.Errorf("%v: peeks moved TLB stats from %d/%d to %d/%d", g, hits, misses, h, ms)
		}
	}
}

// FuzzTagRanges drives SetRange/ClearRange/Tainted/CountTainted with
// arbitrary ranges: no call may panic, valid updates must read back, and
// invalid ranges must leave the bitmap untouched.
func FuzzTagRanges(f *testing.F) {
	f.Add(uint64(7)<<61|uint64(mem.OffsetMask-15), uint64(16), true)
	f.Add(uint64(7)<<61|uint64(mem.OffsetMask-15), ^uint64(0)-7, true)
	f.Add(uint64(2)<<61|0x1003, uint64(0), false)
	f.Add(uint64(1)<<61|0x500, uint64(64), true)
	f.Fuzz(func(t *testing.T, addr, n uint64, word bool) {
		if n > 1<<20 {
			n %= 1 << 20 // keep valid walks fast; huge n is rejected anyway
		}
		g := Byte
		if word {
			g = Word
		}
		s := newFullSpace(g)
		err := s.SetRange(addr, n)
		tainted, terr := s.Tainted(addr, n)
		if err != nil {
			// A rejected range must not have tainted anything it names
			// (when the query itself is answerable).
			if terr == nil && tainted {
				t.Fatalf("rejected SetRange(%#x, %d) left taint", addr, n)
			}
			return
		}
		if terr != nil {
			t.Fatalf("SetRange ok but Tainted errored: %v", terr)
		}
		if n > 0 && !tainted {
			t.Fatalf("SetRange(%#x, %d) ok but range reads clean", addr, n)
		}
		if n == 0 && tainted {
			t.Fatalf("empty SetRange(%#x, 0) tainted something", addr)
		}
		if n > 0 {
			unit := s.Gran.UnitBytes()
			wantUnits := (addr+n-1)/unit - addr/unit + 1
			if c, err := s.CountTainted(addr, n); err != nil || c != wantUnits {
				t.Fatalf("CountTainted = %d, %v, want %d", c, err, wantUnits)
			}
			if err := s.ClearRange(addr, n); err != nil {
				t.Fatalf("ClearRange after SetRange: %v", err)
			}
			if tainted, _ := s.Tainted(addr, n); tainted {
				t.Fatalf("ClearRange(%#x, %d) left taint", addr, n)
			}
		}
	})
}
