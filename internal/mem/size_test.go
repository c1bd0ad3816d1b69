package mem

import "testing"

// Regression: a non-power-of-two size used to bypass the alignment check
// (addr&(size-1) is a meaningless mask for size 3) and reach the default
// byte loop, which indexes p[base+i] past the 4 KiB frame when the access
// crosses a page boundary — an out-of-bounds panic on the host, not a
// guest fault. Such sizes are now rejected up front with FaultBadSize.
func TestBadSizeRejected(t *testing.T) {
	m := New()
	m.MapRegion(1, 0)
	for _, size := range []int{0, 3, 5, 6, 7, 9, 16, -1} {
		if _, f := m.Read(Addr(1, 0x100), size); f == nil || f.Kind != FaultBadSize {
			t.Errorf("Read size %d: fault = %v, want bad size", size, f)
		}
		if f := m.Write(Addr(1, 0x100), size, 0); f == nil || f.Kind != FaultBadSize {
			t.Errorf("Write size %d: fault = %v, want bad size", size, f)
		}
	}
	for _, size := range []int{1, 2, 4, 8} {
		if _, f := m.Read(Addr(1, 0x100), size); f != nil {
			t.Errorf("Read size %d: unexpected fault %v", size, f)
		}
	}
}

// Regression for the page-crossing panic: size 3 at offset pageSize-1 has
// addr&(size-1) == 0 for some addresses, so the old fast path admitted it
// and the byte loop ran past the frame. Must now fault, not panic.
func TestBadSizePageCrossing(t *testing.T) {
	m := New()
	m.MapRegion(1, 0)
	// Populate the frame so the read path reaches the indexing code.
	if f := m.Write(Addr(1, pageSize-8), 8, ^uint64(0)); f != nil {
		t.Fatal(f)
	}
	// Offset pageSize-4 is 0 mod 4, so size 3's bogus mask (size-1 = 2)
	// passes the old alignment test while base+2 stays in frame; offset
	// pageSize-2 with size 3 would index past the frame entirely.
	for _, off := range []uint64{pageSize - 4, pageSize - 2, pageSize - 1} {
		if _, f := m.Read(Addr(1, off), 3); f == nil || f.Kind != FaultBadSize {
			t.Errorf("size-3 read at offset %#x: fault = %v, want bad size", off, f)
		}
		if f := m.Write(Addr(1, off), 3, 0x112233); f == nil || f.Kind != FaultBadSize {
			t.Errorf("size-3 write at offset %#x: fault = %v, want bad size", off, f)
		}
	}
}

// Peek must return the same bytes as Read without touching the cache
// model's counters or contents.
func TestPeekCacheNeutral(t *testing.T) {
	m := New()
	m.MapRegion(1, 0)
	m.Cache = NewCache(16*1024, 64)
	if f := m.Write(Addr(1, 0x40), 8, 0x0807060504030201); f != nil {
		t.Fatal(f)
	}
	hits, misses := m.Cache.Hits, m.Cache.Misses
	for i := uint64(0); i < 8; i++ {
		b, f := m.Peek(Addr(1, 0x40+i))
		if f != nil {
			t.Fatal(f)
		}
		if want := byte(i + 1); b != want {
			t.Errorf("Peek byte %d = %d, want %d", i, b, want)
		}
	}
	if m.Cache.Hits != hits || m.Cache.Misses != misses {
		t.Errorf("Peek perturbed cache counters: %d/%d -> %d/%d",
			hits, misses, m.Cache.Hits, m.Cache.Misses)
	}
	// Unmapped and unimplemented addresses still classify.
	if _, f := m.Peek(Addr(2, 0)); f == nil || f.Kind != FaultUnmapped {
		t.Errorf("Peek unmapped: fault = %v", f)
	}
	if _, f := m.Peek(Addr(1, 0) | 1<<40); f == nil || f.Kind != FaultUnimplemented {
		t.Errorf("Peek unimplemented: fault = %v", f)
	}
	// A never-written page reads as zero.
	if b, f := m.Peek(Addr(1, 0x100000)); f != nil || b != 0 {
		t.Errorf("Peek unwritten = %d, %v", b, f)
	}
}

// CheckAccess must agree with Read on both the verdict and the fault
// classification, without performing the access.
func TestCheckAccessMatchesRead(t *testing.T) {
	m := New()
	m.MapRegion(1, 0x2000)
	m.Cache = NewCache(16*1024, 64)
	cases := []struct {
		addr uint64
		size int
	}{
		{Addr(1, 0x100), 8},
		{Addr(1, 0x101), 8}, // unaligned
		{Addr(1, 0x100), 3}, // bad size
		{Addr(1, 0x1ff8), 8},
		{Addr(1, 0x1ffc), 8},        // past limit
		{Addr(2, 0x100), 8},         // unmapped region
		{Addr(1, 0x100) | 1<<50, 8}, // unimplemented bits
	}
	for _, c := range cases {
		hits, misses := m.Cache.Hits, m.Cache.Misses
		got := m.CheckAccess(c.addr, c.size)
		if m.Cache.Hits != hits || m.Cache.Misses != misses {
			t.Errorf("CheckAccess(%#x, %d) touched the cache", c.addr, c.size)
		}
		_, f := m.Read(c.addr, c.size)
		switch {
		case (got == nil) != (f == nil):
			t.Errorf("CheckAccess(%#x, %d) = %v but Read fault = %v", c.addr, c.size, got, f)
		case got != nil && got.Kind != f.Kind:
			t.Errorf("CheckAccess(%#x, %d) kind %v != Read kind %v", c.addr, c.size, got.Kind, f.Kind)
		}
	}
}

// FuzzMemAccess drives Read/Write/Peek/CheckAccess with arbitrary
// addresses and sizes: no call may panic, faults must classify
// consistently, and a successful write must read back.
func FuzzMemAccess(f *testing.F) {
	f.Add(uint64(1)<<61|0x100, 8, uint64(0xdeadbeef))
	f.Add(uint64(7)<<61|uint64(OffsetMask-2), 4, uint64(1))
	f.Add(uint64(0x123), 3, uint64(0))
	f.Add(uint64(1)<<61|pageSize-1, 7, ^uint64(0))
	f.Fuzz(func(t *testing.T, addr uint64, size int, v uint64) {
		m := New()
		m.MapRegion(1, 0)
		m.MapRegion(7, 0x10000)
		if pre := m.CheckAccess(addr, size); pre != nil {
			if wf := m.Write(addr, size, v); wf == nil || wf.Kind != pre.Kind {
				t.Fatalf("CheckAccess says %v but Write says %v", pre, wf)
			}
			return
		}
		if f := m.Write(addr, size, v); f != nil {
			t.Fatalf("CheckAccess passed but Write faulted: %v", f)
		}
		got, f := m.Read(addr, size)
		if f != nil {
			t.Fatalf("read-back faulted: %v", f)
		}
		want := v
		if size < 8 {
			want &= 1<<(8*uint(size)) - 1
		}
		if got != want {
			t.Fatalf("read-back = %#x, want %#x", got, want)
		}
		b, pf := m.Peek(addr)
		if pf != nil {
			t.Fatalf("Peek faulted after successful write: %v", pf)
		}
		if b != byte(want) {
			t.Fatalf("Peek low byte = %#x, want %#x", b, byte(want))
		}
	})
}
