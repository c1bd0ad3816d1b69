package tagpipe

import (
	"testing"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/mem"
	"shift/internal/taint"
)

// Request-sized layer benchmarks: the shape of one served 4 KB page. The
// OS reads the page into a tainted source buffer, the guest copies it
// word by word into a destination buffer through a register, and about a
// dozen syscall sinks drain the ring and sweep the bitmap on the way —
// roughly the 3,150 retirements and 12 sweeps of a pooled page request.
const (
	reqRecords = 3150
	reqSinks   = 12
	reqBytes   = 4096
)

var (
	reqSrc = mem.Addr(2, 0x10000)
	reqDst = mem.Addr(2, 0x20000)
)

// requestStream returns the copy loop's records: load a word of the
// source, store it to the destination (an authoritative store), plus
// clean ALU traffic, ending with the carrying register cleared so the
// final register sweep agrees with a NaT-free machine.
func requestStream() []rec {
	recs := make([]rec, 0, reqRecords)
	for i := uint64(0); len(recs) < reqRecords-1; i = (i + 8) % reqBytes {
		pc := int32(len(recs))
		recs = append(recs,
			rec{kind: rLoad, op: isa.OpLd, dest: 5, s1: 1, size: 8, pc: pc, addr: reqSrc + i},
			rec{kind: rStore, op: isa.OpSt, s1: 2, s2: 5, size: 8, flags: fAuth, pc: pc + 1, addr: reqDst + i},
			rec{kind: rUnion2, op: isa.OpAdd, dest: 6, s1: 6, s2: 7, pc: pc + 2},
			rec{kind: rCopy, op: isa.OpAddi, dest: 1, s1: 1, pc: pc + 3},
		)
	}
	recs = recs[:reqRecords-1]
	return append(recs, rec{kind: rClear, op: isa.OpMovl, dest: 5, pc: reqRecords - 1})
}

// requestSpace returns a tag space whose bitmap already holds what the
// instrumented guest would have written: both buffers tainted.
func requestSpace(tb testing.TB, g taint.Granularity) (*machine.Machine, *taint.Space) {
	memory := mem.New()
	memory.MapRegion(2, 0)
	tags := taint.NewSpace(memory, g)
	for _, a := range []uint64{reqSrc, reqDst} {
		if err := tags.SetRange(a, reqBytes); err != nil {
			tb.Fatal(err)
		}
	}
	prog := &isa.Program{Text: []isa.Instruction{{Op: isa.OpNop}}}
	return machine.New(prog, memory), tags
}

// BenchmarkApplyRec is the committer's per-record cost: one record of the
// request stream applied to the shadow state.
func BenchmarkApplyRec(b *testing.B) {
	_, tags := requestSpace(b, taint.Byte)
	st := newState(Config{Tags: tags, Instrumented: true})
	st.mem.HostTaint(reqSrc, reqBytes)
	recs := requestStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := st.applyRec(&recs[i%len(recs)]); d != nil {
			b.Fatal(d)
		}
	}
}

// BenchmarkPipelineRun is one request's whole checker lifetime: New, the
// host taint of the page, the record stream with its sink drains and
// bitmap sweeps, Finish and Close.
func BenchmarkPipelineRun(b *testing.B) {
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		b.Run(g.String(), func(b *testing.B) {
			m, tags := requestSpace(b, g)
			recs := requestStream()
			per := len(recs) / reqSinks
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := New(Config{Tags: tags, Instrumented: true, Workers: 1})
				p.HostWrite(reqSrc, reqBytes)
				p.HostTaint(reqSrc, reqBytes)
				for k := range recs {
					p.emit(recs[k])
					if (k+1)%per == 0 {
						p.drain()
						if d := p.st.sweep(tags, m, "sink", &p.Stats); d != nil {
							b.Fatal(d)
						}
					}
				}
				if err := p.Finish(m); err != nil {
					b.Fatal(err)
				}
				p.Close()
			}
		})
	}
}
