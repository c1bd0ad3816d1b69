package oracle

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
// dozen syscall sinks sweep the bitmap on the way —
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
func requestStream() []Rec {
	recs := make([]Rec, 0, reqRecords)
	for i := uint64(0); len(recs) < reqRecords-1; i = (i + 8) % reqBytes {
		pc := int32(len(recs))
		recs = append(recs,
			Rec{Kind: RecLoad, Op: isa.OpLd, Dest: 5, S1: 1, Size: 8, PC: pc, Addr: reqSrc + i},
			Rec{Kind: RecStore, Op: isa.OpSt, S1: 2, S2: 5, Size: 8, Flags: FlagAuth, PC: pc + 1, Addr: reqDst + i},
			Rec{Kind: RecUnion2, Op: isa.OpAdd, Dest: 6, S1: 6, S2: 7, PC: pc + 2},
			Rec{Kind: RecCopy, Op: isa.OpAddi, Dest: 1, S1: 1, PC: pc + 3},
		)
	}
	recs = recs[:reqRecords-1]
	return append(recs, Rec{Kind: RecClear, Op: isa.OpMovl, Dest: 5, PC: reqRecords - 1})
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

// BenchmarkApplyRec is the per-record cost the checker pays: one record
// of the request stream applied to the shadow state.
func BenchmarkApplyRec(b *testing.B) {
	_, tags := requestSpace(b, taint.Byte)
	st := NewState(Config{Tags: tags, Instrumented: true})
	st.HostTaint(reqSrc, reqBytes)
	recs := requestStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := st.Apply(&recs[i%len(recs)]); d != nil {
			b.Fatal(d)
		}
	}
}

// BenchmarkPipelineRun is one request's whole sink-granular checker
// lifetime: New, the host taint of the page, the record stream
// with its sinks and bitmap sweeps, and Finish.
func BenchmarkPipelineRun(b *testing.B) {
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		b.Run(g.String(), func(b *testing.B) {
			m, tags := requestSpace(b, g)
			recs := requestStream()
			per := len(recs) / reqSinks
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := New(Config{Tags: tags, Instrumented: true}, Sink)
				c.HostWrite(reqSrc, reqBytes)
				c.HostTaint(reqSrc, reqBytes)
				for k := range recs {
					if d := c.emit(recs[k]); d != nil {
						b.Fatal(d)
					}
					if (k+1)%per == 0 {
						c.drain()
						if _, d := c.Sweep(m); d != nil {
							b.Fatal(d)
						}
					}
				}
				if err := c.Finish(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
