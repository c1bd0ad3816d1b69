package shadow

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"shift/internal/mem"
	"shift/internal/taint"
)

// refUnit and refModel are the reference the dense shadow is checked
// against: the map-per-unit representation both checkers used before,
// rule for rule.
type refUnit struct{ taint, hidden bool }

type refModel struct {
	unit uint64
	mem  map[uint64]refUnit
}

func newRef(g taint.Granularity) *refModel {
	return &refModel{unit: g.UnitBytes(), mem: make(map[uint64]refUnit)}
}

func (r *refModel) unitOf(a uint64) uint64 { return a &^ (r.unit - 1) }

func (r *refModel) load(addr uint64, size int) bool {
	for u := r.unitOf(addr); u < r.unitOf(addr+uint64(size)-1)+r.unit; u += r.unit {
		if r.mem[u].taint {
			return true
		}
	}
	return false
}

func (r *refModel) set(addr uint64, size int, t, auth bool) {
	for u := r.unitOf(addr); u < r.unitOf(addr+uint64(size)-1)+r.unit; u += r.unit {
		r.mem[u] = refUnit{taint: t, hidden: !auth}
	}
}

func (r *refModel) hostWrite(tags *taint.Space, addr uint64, n int) {
	if n <= 0 {
		return
	}
	for u := r.unitOf(addr); u < r.unitOf(addr+uint64(n)-1)+r.unit; u += r.unit {
		mu := r.mem[u]
		if mu.hidden && tags != nil {
			if bit, err := tags.PeekUnit(u); err == nil {
				mu = refUnit{taint: bit}
			}
		}
		r.mem[u] = mu
	}
}

func (r *refModel) host(addr, n uint64, t bool) {
	if n == 0 {
		return
	}
	for u := r.unitOf(addr); u < r.unitOf(addr+n-1)+r.unit; u += r.unit {
		r.mem[u] = refUnit{taint: t}
	}
}

func (r *refModel) sweep(tags *taint.Space) (uint64, Mismatch, bool) {
	units := make([]uint64, 0, len(r.mem))
	for u, mu := range r.mem {
		if !mu.hidden {
			units = append(units, u)
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i] < units[j] })
	var checks uint64
	for _, u := range units {
		bit, err := tags.PeekUnit(u)
		if err != nil {
			continue
		}
		checks++
		if sh := r.mem[u].taint; bit != sh {
			return checks, Mismatch{Addr: u, Bitmap: bit, Shadow: sh}, true
		}
	}
	return checks, Mismatch{}, false
}

// bases are the neighbourhoods the random operations touch: page and
// 64-unit-word boundaries at both granularities, a region boundary, and
// addresses with unimplemented bits (whose bitmap bits cannot be read),
// one of them at the top of the address space, where ranges wrap.
var bases = []uint64{
	mem.Addr(1, 0x1000),
	mem.Addr(1, 0x2000-0x40),
	mem.Addr(1, 0x3000+0x200),
	mem.Addr(2, 0),
	mem.Addr(1, mem.OffsetMask+1-0x800),
	mem.Addr(3, 0x10000) | 1<<40,
	^uint64(0) - 0x600,
}

// differential drives a dense shadow and the reference with the same
// random operations against one tag space, asserting every load, every
// sweep and the final unit states agree. It injects bitmap bit flips
// before each sweep so first-divergence reporting is exercised as well
// as clean sweeps, and returns how many sweeps came out clean and how
// many found a divergence.
func differential(t testing.TB, seed int64, g taint.Granularity, shared bool, ops int) (clean, diverged int) {
	rng := rand.New(rand.NewSource(seed))
	m := mem.New()
	m.MapRegion(1, 0)
	m.MapRegion(2, 0)
	tags := taint.NewSpace(m, g)
	if shared {
		tags.Share()
	}
	got, ref := New(g), newRef(g)
	label := fmt.Sprintf("seed %d %v shared=%v", seed, g, shared)

	addr := func() uint64 {
		return bases[rng.Intn(len(bases))] + uint64(rng.Intn(1100)) - 550
	}
	sizes := []int{1, 2, 4, 8}
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(20); {
		case op < 6:
			a, size := addr(), sizes[rng.Intn(len(sizes))]
			tt, auth := rng.Intn(2) == 0, rng.Intn(3) != 0
			got.Set(a, size, tt, auth)
			ref.set(a, size, tt, auth)
		case op < 10:
			a, size := addr(), sizes[rng.Intn(len(sizes))]
			if g1, r1 := got.Load(a, size), ref.load(a, size); g1 != r1 {
				t.Fatalf("%s op %d: Load(%#x, %d) = %v, reference %v", label, i, a, size, g1, r1)
			}
		case op < 12:
			a, n := addr(), rng.Intn(700)
			got.HostWrite(tags, a, n)
			ref.hostWrite(tags, a, n)
		case op < 13:
			a, n := addr(), uint64(rng.Intn(1500))
			got.HostTaint(a, n)
			ref.host(a, n, true)
		case op < 14:
			a, n := addr(), uint64(rng.Intn(1500))
			got.HostUntaint(a, n)
			ref.host(a, n, false)
		case op < 18:
			// The guest's bitmap moves on its own: mostly agreeing with
			// the shadow, sometimes not.
			a, n := addr(), uint64(1+rng.Intn(300))
			if rng.Intn(2) == 0 {
				tags.SetRange(a, n)
			} else {
				tags.ClearRange(a, n)
			}
		default:
			syncBitmap(tags, ref, rng)
			flipBits(tags, rng.Intn(3), addr)
			c1, m1, f1 := got.Sweep(tags)
			c2, m2, f2 := ref.sweep(tags)
			if c1 != c2 || f1 != f2 || m1 != m2 {
				t.Fatalf("%s op %d: Sweep = %d %+v %v, reference %d %+v %v", label, i, c1, m1, f1, c2, m2, f2)
			}
			if f1 {
				diverged++
			} else {
				clean++
			}
		}
	}
	c1, m1, f1 := got.Sweep(tags)
	c2, m2, f2 := ref.sweep(tags)
	if c1 != c2 || f1 != f2 || m1 != m2 {
		t.Fatalf("%s final: Sweep = %d %+v %v, reference %d %+v %v", label, c1, m1, f1, c2, m2, f2)
	}
	compareRef(t, label, got, ref)
	return clean, diverged
}

// syncBitmap makes the bitmap agree with the reference on every visible
// unit, and randomizes it under hidden units.
func syncBitmap(tags *taint.Space, ref *refModel, rng *rand.Rand) {
	for u, mu := range ref.mem {
		v := mu.taint
		if mu.hidden {
			v = rng.Intn(2) == 0
		}
		if bit, err := tags.PeekUnit(u); err != nil || bit == v {
			continue
		}
		if v {
			tags.SetRange(u, 1)
		} else {
			tags.ClearRange(u, 1)
		}
	}
}

// flipBits flips the bitmap bit of n units drawn by addr.
func flipBits(tags *taint.Space, n int, addr func() uint64) {
	for ; n > 0; n-- {
		u := addr()
		bit, err := tags.PeekUnit(u)
		if err != nil {
			continue
		}
		if bit {
			tags.ClearRange(u, 1)
		} else {
			tags.SetRange(u, 1)
		}
	}
}

// compareRef asserts the dense shadow knows exactly the reference's units
// with the same taint and hidden bits.
func compareRef(t testing.TB, label string, got *Memory, ref *refModel) {
	n := 0
	got.Each(func(u uint64, tainted, hidden bool) {
		n++
		mu, ok := ref.mem[u]
		if !ok || mu.taint != tainted || mu.hidden != hidden {
			t.Fatalf("%s: unit %#x: shadow %v/%v, reference %+v (known %v)", label, u, tainted, hidden, mu, ok)
		}
	})
	if n != len(ref.mem) {
		t.Fatalf("%s: shadow knows %d units, reference %d", label, n, len(ref.mem))
	}
}

// The dense shadow is observably the map-per-unit reference: same loads,
// same sweep counts and first divergences, same final state, at both
// granularities over plain and shared tag spaces.
func TestShadowDifferential(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 6
	}
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		for _, shared := range []bool{false, true} {
			clean, diverged := 0, 0
			for seed := int64(0); seed < seeds; seed++ {
				c, d := differential(t, seed, g, shared, 300)
				clean, diverged = clean+c, diverged+d
			}
			if clean == 0 || diverged == 0 {
				t.Errorf("%v shared=%v: %d clean and %d diverging sweeps; both kinds must occur", g, shared, clean, diverged)
			}
		}
	}
}

func FuzzShadowSweep(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, false, false)
		f.Add(seed, true, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, word, shared bool) {
		g := taint.Byte
		if word {
			g = taint.Word
		}
		differential(t, seed, g, shared, 200)
	})
}

// A sweep that finds no disagreement counts every visible unit; one that
// does stops at (and counts) the first, in address order, across word
// and page boundaries.
func TestShadowSweepFirstDivergence(t *testing.T) {
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		m := mem.New()
		m.MapRegion(1, 0)
		tags := taint.NewSpace(m, g)
		sh := New(g)
		base := mem.Addr(1, 0x1000)
		unit := g.UnitBytes()
		sh.HostTaint(base, 8192)
		tags.SetRange(base, 8192)
		units := 8192 / unit
		if c, _, found := sh.Sweep(tags); found || c != units {
			t.Fatalf("%v: clean sweep = %d checks, found %v; want %d, false", g, c, found, units)
		}
		// Hide a unit and break its bitmap bit: still clean, one fewer check.
		sh.Set(base+5*unit, 1, true, false)
		tags.ClearRange(base+5*unit, 1)
		if c, _, found := sh.Sweep(tags); found || c != units-1 {
			t.Fatalf("%v: hidden-unit sweep = %d checks, found %v; want %d, false", g, c, found, units-1)
		}
		// Break the second page's 70th unit and the first page's 100th.
		for _, k := range []uint64{4096/unit + 70, 100} {
			tags.ClearRange(base+k*unit, 1)
		}
		c, mm, found := sh.Sweep(tags)
		want := Mismatch{Addr: base + 100*unit, Bitmap: false, Shadow: true}
		if !found || mm != want || c != 100 {
			t.Fatalf("%v: sweep = %d %+v %v; want 100 %+v true", g, c, mm, found, want)
		}
	}
}

// Pages are indexed in address order however they are first touched.
func TestShadowPageIndex(t *testing.T) {
	sh := New(taint.Byte)
	for _, p := range []uint64{9, 3, 7, 1, 3, 12, 0} {
		sh.Set(p<<pageBits+17, 1, true, true)
	}
	if len(sh.pages) != 6 {
		t.Fatalf("%d pages indexed, want 6", len(sh.pages))
	}
	var seen []uint64
	sh.Each(func(u uint64, _, _ bool) { seen = append(seen, u>>pageBits) })
	if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
		t.Fatalf("Each visited pages out of order: %v", seen)
	}
	if sh.Load(5<<pageBits, 8) {
		t.Fatal("an untouched page loaded tainted")
	}
	if len(sh.pages) != 6 {
		t.Fatal("a load allocated a page")
	}
}

// A sweep over a shared tag space reads each bitmap word under its shard
// lock, so it runs race-free against host-side writers toggling the
// hidden units that share those words — and, since hidden units are
// masked out, it still finds the visible units clean and counts them all.
func TestShadowSweepSharedSpaceConcurrent(t *testing.T) {
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		m := mem.New()
		m.MapRegion(1, 0)
		tags := taint.NewSpace(m, g).Share()
		sh := New(g)
		unit := g.UnitBytes()
		base := mem.Addr(1, 0x4000)
		const units = 1024
		var visible uint64
		for k := uint64(0); k < units; k++ {
			a := base + k*unit
			if k%2 == 0 {
				sh.Set(a, 1, k%4 == 0, true)
				if k%4 == 0 {
					tags.SetRange(a, 1)
				}
				visible++
			} else {
				sh.Set(a, 1, false, false)
			}
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					a := base + (uint64(rng.Intn(units/2))*2+1)*unit
					if rng.Intn(2) == 0 {
						tags.SetRange(a, 1)
					} else {
						tags.ClearRange(a, 1)
					}
				}
			}(w)
		}
		for i := 0; i < 200; i++ {
			if c, mm, found := sh.Sweep(tags); found || c != visible {
				close(stop)
				wg.Wait()
				t.Fatalf("%v: concurrent sweep = %d %+v %v; want %d clean", g, c, mm, found, visible)
			}
		}
		close(stop)
		wg.Wait()
	}
}

// BenchmarkSweep is the final-sweep layer: one fully tainted 4 KB page,
// every unit visible and agreeing with the bitmap.
func BenchmarkSweep(b *testing.B) {
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		b.Run(g.String(), func(b *testing.B) {
			m := mem.New()
			m.MapRegion(1, 0)
			tags := taint.NewSpace(m, g)
			sh := New(g)
			base := mem.Addr(1, 0x10000)
			sh.HostTaint(base, 4096)
			if err := tags.SetRange(base, 4096); err != nil {
				b.Fatal(err)
			}
			want := 4096 / g.UnitBytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c, _, found := sh.Sweep(tags); found || c != want {
					b.Fatalf("sweep = %d checks, found %v", c, found)
				}
			}
		})
	}
}
