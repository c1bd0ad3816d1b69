package tagpipe

import (
	"testing"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/mem"
	"shift/internal/oracle"
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
func requestStream() []oracle.Rec {
	recs := make([]oracle.Rec, 0, reqRecords)
	for i := uint64(0); len(recs) < reqRecords-1; i = (i + 8) % reqBytes {
		pc := int32(len(recs))
		recs = append(recs,
			oracle.Rec{Kind: oracle.RecLoad, Op: isa.OpLd, Dest: 5, S1: 1, Size: 8, PC: pc, Addr: reqSrc + i},
			oracle.Rec{Kind: oracle.RecStore, Op: isa.OpSt, S1: 2, S2: 5, Size: 8, Flags: oracle.FlagAuth, PC: pc + 1, Addr: reqDst + i},
			oracle.Rec{Kind: oracle.RecUnion2, Op: isa.OpAdd, Dest: 6, S1: 6, S2: 7, PC: pc + 2},
			oracle.Rec{Kind: oracle.RecCopy, Op: isa.OpAddi, Dest: 1, S1: 1, PC: pc + 3},
		)
	}
	recs = recs[:reqRecords-1]
	return append(recs, oracle.Rec{Kind: oracle.RecClear, Op: isa.OpMovl, Dest: 5, PC: reqRecords - 1})
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
	st := oracle.NewState(oracle.Config{Tags: tags, Instrumented: true})
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
				p := New(Config{Tags: tags, Instrumented: true})
				p.HostWrite(reqSrc, reqBytes)
				p.HostTaint(reqSrc, reqBytes)
				for k := range recs {
					p.emit(recs[k])
					if (k+1)%per == 0 {
						p.drain()
						if _, d := p.st.Sweep(m); d != nil {
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
