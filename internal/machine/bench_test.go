package machine

import (
	"testing"

	"shift/internal/asm"
	"shift/internal/isa"
	"shift/internal/mem"
)

// benchThroughput measures raw engine speed in guest instructions per
// second on a tight ALU/load/store/branch mix — the execution engine's
// headline number, independent of any workload's build pipeline. A
// non-nil hook is attached to every run.
func benchThroughput(b *testing.B, engine Engine, hook StepHook) {
	p, err := asm.Assemble(`
	movl r10 = 2305843009213693952   ; region-1 scratch base
	movl r1 = 1000
	movl r2 = 0
loop:
	add r2 = r2, r1
	xor r3 = r2, r1
	shli r4 = r3, 3
	st8 [r10] = r4
	ld8 r5 = [r10]
	addi r1 = r1, -1
	cmpi.gt p6, p7 = r1, 0
	(p6) br loop
	mov r32 = r2
	syscall 1
`, asm.Options{})
	if err != nil {
		b.Fatalf("assemble: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		m := mem.New()
		m.MapRegion(0, 0)
		m.MapRegion(1, 0)
		m.MapRegion(2, 0)
		m.Cache = mem.NewCache(16*1024, 64)
		mach := New(p, m)
		mach.Engine = engine
		mach.Hook = hook
		mach.OS = benchOS{}
		mach.GR[isa.RegSP] = int64(mem.Addr(2, 0x10000))
		if trap := mach.Run(); trap != nil {
			b.Fatal(trap)
		}
		retired += mach.Retired
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "guest-instr/s")
	}
}

// BenchmarkStepThroughput runs the default translated-block engine.
func BenchmarkStepThroughput(b *testing.B) { benchThroughput(b, EngineBlock, nil) }

// BenchmarkStepThroughputInterp runs the reference interpreter — the
// oracle's ground-truth engine and the block engine's comparison point.
func BenchmarkStepThroughputInterp(b *testing.B) { benchThroughput(b, EngineInterp, nil) }

// BenchmarkStepThroughputHooked runs the default engine with a no-op
// StepHook attached: the cost of hook dispatch alone, on whatever path
// observed runs take (every checked, traced and served run).
func BenchmarkStepThroughputHooked(b *testing.B) { benchThroughput(b, EngineBlock, nopHook{}) }

type nopHook struct{}

func (nopHook) PreStep(*Machine, *isa.Instruction)        {}
func (nopHook) PostStep(*Machine, *isa.Instruction) error { return nil }

type benchOS struct{}

func (benchOS) Syscall(m *Machine, num int64) (uint64, *Trap) {
	if num == isa.SysExit {
		m.Halt(m.GR[isa.RegArg0])
		return 0, nil
	}
	return 0, &Trap{Kind: TrapHostError, PC: m.PC, Ins: "syscall"}
}
