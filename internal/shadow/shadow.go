// Package shadow is the checkers' reference copy of guest memory taint:
// the state the lockstep oracle and the sink-granular checker propagate
// independently of the guest's own tag bitmap, and then cross-check
// against it.
//
// A unit is hidden when its last write bypassed the bitmap by design:
// ABI register-preservation traffic, the instrumentation's red-zone
// NaT-stripping spills, and tag-byte stores themselves. The shadow still
// tracks taint through hidden units (that is how spilled tokens keep
// their meaning), but the bitmap is not expected to agree there, so
// sweeps skip them until a host write adopts the bitmap's bit.
//
// The representation is dense. Each touched 4 KB guest page carries
// three bitsets over its tracked units (4096 at byte granularity, 512 at
// word granularity): known (the unit has shadow state), taint, and
// hidden. Pages live in a slice sorted by page key, with a one-entry
// cache in front of the binary search, so the common load/store lookup
// is a compare, and Sweep walks the touched pages in address order,
// comparing 64 units per bitmap word.
package shadow

import (
	"math/bits"

	"shift/internal/taint"
)

const (
	pageBits = 12
	pageMask = 1<<pageBits - 1
	// wordBits is log2 of taint.WordUnits: units per bitset word.
	wordBits = 6
)

// word is one 64-unit group of a page: bit i of each field describes the
// unit at the group's base + i units.
type word struct {
	known, taint, hidden uint64
}

// page is the shadow state of one 4 KB guest page.
type page struct {
	key   uint64 // guest address >> pageBits
	words []word
}

// Memory is the dense shadow taint of guest memory at one tracking
// granularity. The zero value is not usable; build one with New. A
// Memory is not safe for concurrent use.
type Memory struct {
	shift     uint   // log2 of the unit size in bytes
	unit      uint64 // unit size in bytes
	pageWords int    // bitset words per page
	pages     []*page
	last      *page // one-entry lookup cache
}

// New returns an empty shadow memory tracking units of the given
// granularity.
func New(g taint.Granularity) *Memory {
	sh := g.UnitShift()
	return &Memory{
		shift:     sh,
		unit:      1 << sh,
		pageWords: 1 << (pageBits - sh - wordBits),
	}
}

// UnitBytes returns the tracked unit size in bytes.
func (m *Memory) UnitBytes() uint64 { return m.unit }

// UnitOf aligns an address down to its tracked unit.
func (m *Memory) UnitOf(addr uint64) uint64 { return addr &^ (m.unit - 1) }

// lookup returns the page with the given key, creating it when alloc is
// set; nil means the page is untouched.
func (m *Memory) lookup(key uint64, alloc bool) *page {
	if p := m.last; p != nil && p.key == key {
		return p
	}
	lo, hi := 0, len(m.pages)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.pages[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(m.pages) && m.pages[lo].key == key {
		m.last = m.pages[lo]
		return m.last
	}
	if !alloc {
		return nil
	}
	p := &page{key: key, words: make([]word, m.pageWords)}
	m.pages = append(m.pages, nil)
	copy(m.pages[lo+1:], m.pages[lo:])
	m.pages[lo] = p
	m.last = p
	return p
}

// at returns the bitset word holding unit u and u's bit index in it.
func (m *Memory) at(u uint64, alloc bool) (*word, uint) {
	p := m.lookup(u>>pageBits, alloc)
	if p == nil {
		return nil, 0
	}
	idx := (u & pageMask) >> m.shift
	return &p.words[idx>>wordBits], uint(idx & (1<<wordBits - 1))
}

// span returns the unit range [first, end) covering the n-byte access at
// addr. An access whose end wraps the address space covers nothing
// (first >= end), as does n == 0.
func (m *Memory) span(addr, n uint64) (first, end uint64) {
	if n == 0 {
		return 0, 0
	}
	return m.UnitOf(addr), m.UnitOf(addr+n-1) + m.unit
}

// each calls fn for every bitset word overlapping the units [first, end),
// in address order, with the mask of the covered units and the address
// of the word's bit-0 unit. Words of untouched pages are skipped unless
// alloc is set. fn returns false to stop the walk.
func (m *Memory) each(first, end uint64, alloc bool, fn func(w *word, mask, base uint64) bool) {
	groupBytes := m.unit << wordBits
	for u := first; u < end; {
		next := (u | (groupBytes - 1)) + 1 // next group's base; 0 on wrap
		lo := uint((u >> m.shift) & (1<<wordBits - 1))
		hi := uint(1<<wordBits - 1)
		if next == 0 || next > end {
			hi = uint(((end - m.unit) >> m.shift) & (1<<wordBits - 1))
		}
		if w, _ := m.at(u, alloc); w != nil {
			if !fn(w, ^uint64(0)>>(63-(hi-lo))<<lo, u&^(groupBytes-1)) {
				return
			}
		}
		if next == 0 {
			return
		}
		u = next
	}
}

// Load reports whether any unit covering [addr, addr+size) is tainted.
func (m *Memory) Load(addr uint64, size int) bool {
	first, end := m.span(addr, uint64(size))
	hit := false
	m.each(first, end, false, func(w *word, mask, _ uint64) bool {
		hit = w.taint&mask != 0
		return !hit
	})
	return hit
}

// Set writes t as the taint of every unit covering [addr, addr+size). An
// authoritative write (one the instrumentation follows with a tag-bitmap
// update) leaves the units visible to Sweep; any other write hides them.
func (m *Memory) Set(addr uint64, size int, t, authoritative bool) {
	m.set(addr, uint64(size), t, !authoritative)
}

// set makes the units covering [addr, addr+n) known with the given taint
// and hidden bits.
func (m *Memory) set(addr, n uint64, t, hidden bool) {
	first, end := m.span(addr, n)
	m.each(first, end, true, func(w *word, mask, _ uint64) bool {
		w.known |= mask
		w.taint &^= mask
		if t {
			w.taint |= mask
		}
		w.hidden &^= mask
		if hidden {
			w.hidden |= mask
		}
		return true
	})
}

// HostTaint records that the OS marked [addr, addr+n) as a taint source:
// the units become known, tainted and visible.
func (m *Memory) HostTaint(addr, n uint64) { m.set(addr, n, true, false) }

// HostUntaint records that the OS explicitly cleared tags over
// [addr, addr+n): the units become known, clean and visible.
func (m *Memory) HostUntaint(addr, n uint64) { m.set(addr, n, false, false) }

// HostWrite records that the OS wrote n bytes of host data at addr.
// Tags are sticky under SHIFT's OS model, so the shadow keeps its taint
// for the touched units, which become known. A hidden unit loses its
// exemption: it adopts its bitmap bit from tags once and is checked like
// any other unit from then on. A hidden unit whose bit cannot be read
// (or any hidden unit when tags is nil) stays as it was.
func (m *Memory) HostWrite(tags *taint.Space, addr uint64, n int) {
	if n <= 0 {
		return
	}
	first, end := m.span(addr, uint64(n))
	m.each(first, end, true, func(w *word, mask, base uint64) bool {
		w.known |= mask
		h := w.hidden & mask
		if h == 0 || tags == nil {
			return true
		}
		bm, readable := m.bitmap(tags, base, h)
		h &= readable
		w.taint = w.taint&^h | bm&h
		w.hidden &^= h
		return true
	})
}

// bitmap reads the tag bits of the units in mask of the 64-unit word at
// base with one PeekWord, or unit by unit with PeekUnit when the word
// cannot be read. readable marks the units whose bit was read.
func (m *Memory) bitmap(tags *taint.Space, base, mask uint64) (bm, readable uint64) {
	if bm, err := tags.PeekWord(base); err == nil {
		return bm, mask
	}
	for k := mask; k != 0; k &= k - 1 {
		b := uint(bits.TrailingZeros64(k))
		if bit, err := tags.PeekUnit(base + uint64(b)<<m.shift); err == nil {
			readable |= 1 << b
			if bit {
				bm |= 1 << b
			}
		}
	}
	return bm, readable
}

// Mismatch is the first unit whose bitmap bit disagrees with the shadow.
type Mismatch struct {
	Addr   uint64 // the unit's address
	Bitmap bool   // the guest's tag bit
	Shadow bool   // the shadow's taint
}

// Sweep cross-checks every known, non-hidden unit against the tag
// bitmap in address order and returns how many units it compared and the
// first disagreement, if any. The count includes the disagreeing unit
// and stops there. Each 64-unit word is compared at once under the mask
// known &^ hidden against one taint.Space.PeekWord read, so the cost is
// O(touched pages × words per page); a word that cannot be read falls
// back to per-unit PeekUnit, and a unit whose bit cannot be read is not
// representable in the bitmap and is neither compared nor counted.
func (m *Memory) Sweep(tags *taint.Space) (checks uint64, mm Mismatch, found bool) {
	for _, p := range m.pages {
		pageBase := p.key << pageBits
		for i := range p.words {
			w := &p.words[i]
			mask := w.known &^ w.hidden
			if mask == 0 {
				continue
			}
			base := pageBase + uint64(i)<<(m.shift+wordBits)
			bm, readable := m.bitmap(tags, base, mask)
			mask &= readable
			diff := (bm ^ w.taint) & mask
			if diff == 0 {
				checks += uint64(bits.OnesCount64(mask))
				continue
			}
			b := uint(bits.TrailingZeros64(diff))
			// Units up to and including the first disagreement: 2<<63
			// wraps to 0, and 0-1 selects the whole word.
			checks += uint64(bits.OnesCount64(mask & (2<<b - 1)))
			return checks, Mismatch{Addr: base + uint64(b)<<m.shift, Bitmap: bm>>b&1 != 0, Shadow: w.taint>>b&1 != 0}, true
		}
	}
	return checks, Mismatch{}, false
}

// Unit reports the taint and hidden bits of the unit containing addr;
// a unit the shadow does not know is clean and visible.
func (m *Memory) Unit(addr uint64) (tainted, hidden bool) {
	w, b := m.at(m.UnitOf(addr), false)
	if w == nil {
		return false, false
	}
	return w.taint>>b&1 != 0, w.hidden>>b&1 != 0
}

// Each calls fn for every known unit in address order.
func (m *Memory) Each(fn func(u uint64, tainted, hidden bool)) {
	for _, p := range m.pages {
		pageBase := p.key << pageBits
		for i := range p.words {
			w := &p.words[i]
			base := pageBase + uint64(i)<<(m.shift+wordBits)
			for k := w.known; k != 0; k &= k - 1 {
				b := uint(bits.TrailingZeros64(k))
				fn(base+uint64(b)<<m.shift, w.taint>>b&1 != 0, w.hidden>>b&1 != 0)
			}
		}
	}
}
