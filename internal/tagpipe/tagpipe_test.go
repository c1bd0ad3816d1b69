package tagpipe

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/mem"
	"shift/internal/oracle"
	"shift/internal/taint"
)

// buildMachine assembles a program, maps the data regions and returns a
// machine with a tag space over region 0 (same fixture as the oracle's).
func buildMachine(t *testing.T, text []isa.Instruction, g taint.Granularity) (*machine.Machine, *taint.Space) {
	t.Helper()
	p := &isa.Program{Text: text}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	memory := mem.New()
	tags := taint.NewSpace(memory, g)
	memory.MapRegion(2, 0)
	m := machine.New(p, memory)
	return m, tags
}

func stepAll(m *machine.Machine, n int) *machine.Trap {
	for i := 0; i < n; i++ {
		if trap := m.Step(); trap != nil {
			return trap
		}
	}
	return nil
}

var dataAddr = mem.Addr(2, 0x100)

// A clean round trip must finish divergence-free, and the retirement log
// must have actually flowed.
func TestPipelineCleanRun(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 42},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8},
		{Op: isa.OpLd, Dest: 3, Src1: 1, Size: 8},
		{Op: isa.OpAdd, Dest: 4, Src1: 2, Src2: 3},
	}
	for _, instrumented := range []bool{false, true} {
		m, tags := buildMachine(t, text, taint.Byte)
		p := New(Config{Tags: tags, Instrumented: instrumented})
		p.Attach(m)
		if trap := stepAll(m, len(text)); trap != nil {
			t.Fatalf("instrumented=%v: %v", instrumented, trap)
		}
		if err := p.Finish(m); err != nil {
			t.Fatalf("instrumented=%v: Finish: %v", instrumented, err)
		}
		p.Close()
		if got := p.Stats.Records.Load(); got != uint64(len(text)) {
			t.Errorf("%d records, want %d", got, len(text))
		}
		if p.Lag() != 0 {
			t.Errorf("lag %d after Finish, want 0", p.Lag())
		}
	}
}

// A store whose tag update went missing surfaces as a bitmap divergence.
// Detection is sink-granular: with no syscalls in the program it lands at
// Finish rather than at the next instruction boundary.
func TestPipelineCatchesStaleBitmap(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 7},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8}, // clean store, no tag update follows
		{Op: isa.OpAdd, Dest: 4, Src1: 2, Src2: 2},
	}
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		m, tags := buildMachine(t, text, g)
		if err := tags.SetRange(dataAddr, 8); err != nil { // seeded bug: stale taint
			t.Fatal(err)
		}
		p := New(Config{Tags: tags, Instrumented: true})
		p.Attach(m)
		if trap := stepAll(m, len(text)); trap != nil {
			t.Fatalf("gran=%v: unexpected trap %v", g, trap)
		}
		err := p.Finish(m)
		p.Close()
		var d *oracle.Divergence
		if !errors.As(err, &d) || d.Kind != oracle.DivBitmap {
			t.Fatalf("gran=%v: Finish = %v, want DivBitmap", g, err)
		}
		if !d.Machine || d.Shadow {
			t.Errorf("gran=%v: machine=%v shadow=%v, want true/false", g, d.Machine, d.Shadow)
		}
		if p.Divergence() == nil {
			t.Errorf("gran=%v: Divergence() not latched", g)
		}
	}
}

// A phantom NaT token (no shadow taint accounting for it) surfaces at the
// next sink's register sweep — here, Finish.
func TestPipelineCatchesPhantomNaT(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: 3},
		{Op: isa.OpAddi, Dest: 2, Src1: 1, Imm: 1},
	}
	m, tags := buildMachine(t, text, taint.Byte)
	p := New(Config{Tags: tags, Instrumented: true})
	p.Attach(m)
	if trap := m.Step(); trap != nil {
		t.Fatal(trap)
	}
	m.NaT[6] = true // seeded bug: token appears out of nowhere
	if trap := m.Step(); trap != nil {
		t.Fatalf("decoupled checks fired mid-run: %v (expected sink-granular detection)", trap)
	}
	err := p.Finish(m)
	p.Close()
	var d *oracle.Divergence
	if !errors.As(err, &d) || d.Kind != oracle.DivRegister || d.Reg != 6 {
		t.Fatalf("Finish = %v, want DivRegister on r6", err)
	}
}

// The reverse direction: shadow taint the machine lost (NaT clear where
// the reference says tainted) surfaces at the closing sweep too.
func TestPipelineCatchesDroppedTaint(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpLd, Dest: 2, Src1: 1, Size: 8}, // loads tainted data, NaT stays clear
		{Op: isa.OpAddi, Dest: 3, Src1: 2, Imm: 1},
		{Op: isa.OpNop},
	}
	m, tags := buildMachine(t, text, taint.Byte)
	if err := tags.SetRange(dataAddr, 8); err != nil {
		t.Fatal(err)
	}
	p := New(Config{Tags: tags, Instrumented: true})
	p.Attach(m)
	p.HostTaint(dataAddr, 8) // the OS says the source is real
	if trap := stepAll(m, len(text)); trap != nil {
		t.Fatalf("unexpected trap %v", trap)
	}
	err := p.Finish(m)
	p.Close()
	var d *oracle.Divergence
	if !errors.As(err, &d) || d.Kind != oracle.DivRegister {
		t.Fatalf("Finish = %v, want DivRegister", err)
	}
	if d.Machine || !d.Shadow {
		t.Errorf("machine=%v shadow=%v, want false/true", d.Machine, d.Shadow)
	}
}

// The mechanical NaT rules keep per-record granularity: a broken rule in
// the log is detected by the consumer without waiting for a sink, and the
// producer surfaces it on the next retirement.
func TestPipelineNaTRulePerRecord(t *testing.T) {
	p := New(Config{SegRecords: 1}) // submit every record
	p.emit(oracle.Rec{Kind: oracle.RecLoad, Op: isa.OpLd, Dest: 5, Size: 8, Flags: oracle.FlagNatAfter, PC: 7})
	p.drain()
	d := p.Divergence()
	p.Close()
	if d == nil || d.Kind != oracle.DivNaTRule || d.Reg != 5 || d.PC != 7 || d.Ins != "ld" {
		t.Fatalf("divergence = %+v, want DivNaTRule on r5@pc7 [ld]", d)
	}
}

// Host effects drain the ring first, so they land on the committed
// shadow exactly where they fall in retirement order: the pipeline's
// state equals a reference oracle.State that saw the same records and
// notifications applied one by one.
func TestPipelineHostEffects(t *testing.T) {
	_, tags := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, taint.Byte)
	p, ref := New(Config{Tags: tags, Instrumented: true}), oracle.NewState(oracle.Config{Tags: tags, Instrumented: true})
	defer p.Close()
	// A clean store, then a host source over it: the source survives only
	// if it is applied after the store.
	applyBoth(t, p, ref, oracle.Rec{Kind: oracle.RecStore, Op: isa.OpSt, S2: 2, Size: 4, Addr: dataAddr})
	p.HostTaint(dataAddr, 4)
	ref.HostTaint(dataAddr, 4)
	applyBoth(t, p, ref, oracle.Rec{Kind: oracle.RecLoad, Op: isa.OpLd, Dest: 3, Size: 4, Addr: dataAddr})
	p.HostUntaint(dataAddr+2, 2)
	ref.HostUntaint(dataAddr+2, 2)
	p.HostWrite(dataAddr, 4)
	ref.HostWrite(dataAddr, 4)
	applyBoth(t, p, ref, oracle.Rec{Kind: oracle.RecLoad, Op: isa.OpLd, Dest: 4, Size: 2, Addr: dataAddr + 2})
	p.drain()
	sameState(t, p.st, ref)
}

// A spawn drains too: the child inherits the argument taint the parent
// had at that point in the stream, and the UnsafePreempt stand-down
// applies from there on, as in the oracle.
func TestPipelineSpawn(t *testing.T) {
	for _, unsafe := range []bool{false, true} {
		_, tags := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, taint.Byte)
		p := New(Config{Tags: tags, Instrumented: true, UnsafePreempt: unsafe})
		ref := oracle.NewState(oracle.Config{Tags: tags, Instrumented: true, UnsafePreempt: unsafe})
		p.HostTaint(dataAddr, 8)
		ref.HostTaint(dataAddr, 8)
		applyBoth(t, p, ref, oracle.Rec{Kind: oracle.RecLoad, Op: isa.OpLd, Dest: isa.RegArg0 + 1, Size: 8, Addr: dataAddr})
		p.OnSpawn(0, 1)
		ref.OnSpawn(0, 1)
		sameState(t, p.st, ref)
		if p.st.Checking() == unsafe {
			t.Errorf("unsafe=%v: strong checks %v after spawn", unsafe, p.st.Checking())
		}
		p.Close()
	}
}

// applyBoth emits r into the pipeline and applies it to the reference.
func applyBoth(t *testing.T, p *Pipeline, ref *oracle.State, r oracle.Rec) {
	t.Helper()
	p.emit(r)
	if d := ref.Apply(&r); d != nil {
		t.Fatal(d)
	}
}

// A tiny ring forces the producer through the recycle path: counters
// reconcile and the state after a drain equals a never-stalled run's.
func TestPipelineTinyRing(t *testing.T) {
	big := New(Config{})
	tiny := New(Config{Segments: 2, SegRecords: 2})
	recs := makeRandomRecs(300, 99)
	for i := range recs {
		big.emit(recs[i])
		tiny.emit(recs[i])
	}
	big.drain()
	tiny.drain()
	if d1, d2 := big.Divergence(), tiny.Divergence(); (d1 == nil) != (d2 == nil) {
		t.Fatalf("divergence disagreement: big=%v tiny=%v", d1, d2)
	}
	sameState(t, big.st, tiny.st)
	if got := tiny.Stats.Records.Load(); got != 300 {
		t.Errorf("tiny ring recorded %d records, want 300", got)
	}
	if tiny.Stats.Segments.Load() != 150 {
		t.Errorf("tiny ring used %d segments, want 150", tiny.Stats.Segments.Load())
	}
	if tiny.Lag() != 0 {
		t.Errorf("lag %d after drain, want 0", tiny.Lag())
	}
	big.Close()
	tiny.Close()
}

// The ring fills lazily: a run that emits less than a ring's worth of
// records builds only the segments it fills, and no run builds more than
// Segments, however hard the producer pushes.
func TestPipelineLazyRing(t *testing.T) {
	recs := makeRandomRecs(600, 7)
	p := New(Config{})
	for i := range recs[:10] {
		p.emit(recs[i])
	}
	p.drain()
	if p.allocated != 1 {
		t.Errorf("10 records built %d segments, want 1", p.allocated)
	}
	for i := range recs {
		p.emit(recs[i])
	}
	p.drain()
	// 600 more records fill three 256-record segments at most.
	if p.allocated < 1 || p.allocated > 3 {
		t.Errorf("610 records built %d segments, want 1..3", p.allocated)
	}
	p.Close()

	tiny := New(Config{Segments: 2, SegRecords: 2})
	for i := range recs {
		tiny.emit(recs[i])
	}
	tiny.drain()
	if tiny.allocated > 2 {
		t.Errorf("a 2-segment ring built %d segments", tiny.allocated)
	}
	tiny.Close()
}

// emit appends one prebuilt record, the way PostStep appends an encoded
// one.
func (p *Pipeline) emit(r oracle.Rec) {
	*p.slot() = r
	p.push()
}

// sameState asserts two shadow states are identical over every thread
// and every tracked unit.
func sameState(t *testing.T, a, b *oracle.State) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shadow states differ")
	}
}

// makeRandomRecs builds a producer-faithful random record stream: the
// field combinations are the ones the encoder can actually emit
// (FlagNatAfter only on dest-writing kinds, FlagDeferred only on
// RecLoadSpec, addresses drawn from a small pool so records overlap).
func makeRandomRecs(n int, seed int64) []oracle.Rec {
	rng := rand.New(rand.NewSource(seed))
	addrs := []uint64{0x100, 0x104, 0x108, 0x110, 0x118, 0x120}
	sizes := []uint8{1, 2, 4, 8}
	ops := []isa.Opcode{isa.OpAdd, isa.OpMov, isa.OpMovl, isa.OpLd, isa.OpLdS,
		isa.OpLdFill, isa.OpSt, isa.OpCmpxchg, isa.OpMovToCcv, isa.OpMovFromCcv, isa.OpSetNat}
	recs := make([]oracle.Rec, 0, n)
	for i := 0; i < n; i++ {
		r := oracle.Rec{
			Op:   ops[rng.Intn(len(ops))],
			Dest: uint8(rng.Intn(14)),
			S1:   uint8(rng.Intn(14)),
			S2:   uint8(rng.Intn(14)),
			Size: sizes[rng.Intn(len(sizes))],
			TID:  int32(rng.Intn(3)),
			PC:   int32(i),
			Addr: addrs[rng.Intn(len(addrs))],
		}
		switch rng.Intn(10) {
		case 0:
			r.Kind = oracle.RecClear
		case 1:
			r.Kind = oracle.RecCopy
		case 2:
			r.Kind = oracle.RecLoad
		case 3:
			r.Kind = oracle.RecLoadSpec
			if rng.Intn(2) == 0 {
				r.Flags |= oracle.FlagDeferred | oracle.FlagNatAfter // the legal deferred outcome
			}
		case 4:
			r.Kind = oracle.RecLoadFill
			r.Size = 8
		case 5:
			r.Kind = oracle.RecStore
			r.Dest = 0
			if rng.Intn(2) == 0 {
				r.Flags |= oracle.FlagAuth
			}
		case 6:
			r.Kind = oracle.RecCmpxchg
			if rng.Intn(2) == 0 {
				r.Flags |= oracle.FlagCommitted
			}
			if rng.Intn(2) == 0 {
				r.Flags |= oracle.FlagAuth
			}
		case 7:
			r.Kind = oracle.RecCcvSet
			r.Dest = 0
		case 8:
			r.Kind = oracle.RecCcvGet
		default:
			r.Kind = oracle.RecUnion2
		}
		// A sprinkling of NaT-after bits on dest-writing records: some
		// will be backed by shadow taint (pass), some not (the suspect
		// path), some break a mechanical rule (RecLoad with NaT).
		if r.WritesDest() && r.Dest != 0 && rng.Intn(12) == 0 {
			r.Flags |= oracle.FlagNatAfter
		}
		recs = append(recs, r)
	}
	return recs
}
