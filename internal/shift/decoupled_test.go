package shift_test

// Differential suite for the sink-granular checker (Options.Decoupled):
// every workload, attack and threaded schedule runs once under the
// lockstep oracle and once under the sink-granular checker, and the two
// runs must agree on every observable — traps, alerts, output, exit
// status, cycle accounting, machine state, and the taint bitmap.
// Verdict equivalence is the checker's acceptance criterion (DESIGN.md
// §4c); the -race CI stage runs this file too.

import (
	"fmt"
	"runtime"
	"testing"

	"shift/internal/attacks"
	"shift/internal/isa"
	"shift/internal/loader"
	"shift/internal/machine"
	"shift/internal/oracle"
	"shift/internal/shift"
	"shift/internal/taint"
	"shift/internal/workload"
)

// inlineVsDecoupled runs the same build under the lockstep oracle and
// under the sink-granular checker with fresh worlds.
func inlineVsDecoupled(t *testing.T, label string, sources []shift.Source,
	world func() *shift.World, opt shift.Options) (*shift.Result, *shift.Result) {
	t.Helper()
	prog, err := shift.Build(sources, opt)
	if err != nil {
		t.Fatalf("%s: build: %v", label, err)
	}
	opt.Oracle, opt.Decoupled = true, 0
	ref, err := shift.Run(prog, world(), opt)
	if err != nil {
		t.Fatalf("%s: inline-oracle run: %v", label, err)
	}
	opt.Oracle, opt.Decoupled = false, 1
	got, err := shift.Run(prog, world(), opt)
	if err != nil {
		t.Fatalf("%s: sink-checker run: %v", label, err)
	}
	if got.Pipe == nil {
		t.Fatalf("%s: sink-checker run has no checker", label)
	}
	if got.Pipe.Stats.Records.Load() == 0 {
		t.Fatalf("%s: sink checker idle: no retirement records flowed", label)
	}
	return ref, got
}

// TestDecoupledWorkloads sweeps the Figure 7 benchmarks: inline and
// sink-granular verdicts and observables must agree in every mode.
func TestDecoupledWorkloads(t *testing.T) {
	modes := []struct {
		name string
		opt  func(b *workload.Benchmark) shift.Options
	}{
		{"base", func(b *workload.Benchmark) shift.Options {
			return shift.Options{Policy: b.Config()}
		}},
		{"byte", func(b *workload.Benchmark) shift.Options {
			conf := b.Config()
			conf.Granularity = taint.Byte
			return shift.Options{Instrument: true, Policy: conf}
		}},
		{"word", func(b *workload.Benchmark) shift.Options {
			conf := b.Config()
			conf.Granularity = taint.Word
			return shift.Options{Instrument: true, Policy: conf}
		}},
	}
	slow := map[string]bool{"vpr": true, "twolf": true, "mcf": true}
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if testing.Short() && slow[b.Name] {
				t.Skip("fixed-iteration kernel; covered by the non-short run")
			}
			sc := b.RefScale / 8
			if sc < 64 {
				sc = 64
			}
			for _, m := range modes {
				sources := []shift.Source{{Name: b.Name + ".mc", Text: b.Source}}
				label := fmt.Sprintf("%s/%s", b.Name, m.name)
				ref, got := inlineVsDecoupled(t, label, sources,
					func() *shift.World { return b.World(sc) }, m.opt(b))
				if ref.Trap != nil || ref.Alert != nil {
					t.Fatalf("%s: benchmark not clean: trap=%v alert=%v", label, ref.Trap, ref.Alert)
				}
				compareResults(t, label, ref, got)
				if m.name != "base" && got.Pipe.Stats.Sweeps.Load() == 0 {
					t.Errorf("%s: no sink sweeps ran in an instrumented run", label)
				}
			}
		})
	}
}

// TestDecoupledAttacks runs every Table 2 attack's benign and exploit
// inputs: detections and alert details must be identical between the
// lockstep oracle and the sink checker at both granularities.
func TestDecoupledAttacks(t *testing.T) {
	grans := []taint.Granularity{taint.Byte, taint.Word}
	if testing.Short() {
		grans = grans[:1]
	}
	for _, a := range attacks.All() {
		a := a
		t.Run(a.Program, func(t *testing.T) {
			for _, gran := range grans {
				conf := a.Config()
				conf.Granularity = gran
				opt := shift.Options{Instrument: true, Policy: conf}
				sources := []shift.Source{{Name: a.Program, Text: a.Source}}

				ref, got := inlineVsDecoupled(t, "benign", sources, a.Benign, opt)
				compareResults(t, fmt.Sprintf("%s/benign/%v", a.Program, gran), ref, got)

				ref, got = inlineVsDecoupled(t, "exploit", sources, a.Exploit, opt)
				compareResults(t, fmt.Sprintf("%s/exploit/%v", a.Program, gran), ref, got)
				if ref.Alert == nil && a.Expect != "" {
					t.Errorf("%v: exploit raised no alert (expected %s)", gran, a.Expect)
				}
			}
		})
	}
}

// TestDecoupledThreads drives the threaded schedule grid: multithreaded
// guests under small quanta, instrumented and not, plus the
// UnsafePreempt stand-down — all must be verdict-identical.
func TestDecoupledThreads(t *testing.T) {
	src := `
char log[128];
int pos;
int done[4];

int worker(int id) {
	int i;
	int acc = 0;
	for (i = 0; i < 12; i++) {
		log[pos] = 'a' + id;
		pos++;
		acc += i * id;
		yield();
	}
	done[id] = acc;
	return acc;
}

void main() {
	int t1 = spawn("worker", 1);
	int t2 = spawn("worker", 2);
	int t3 = spawn("worker", 3);
	if (t1 < 0 || t2 < 0 || t3 < 0) exit(9);
	join(t1);
	join(t2);
	join(t3);
	log[pos] = 0;
	print_str(log);
	print_int(done[1] + done[2] + done[3]);
	putc('\n');
	exit(0);
}
`
	for _, quantum := range []uint64{1, 7, 23, 50} {
		for _, instrument := range []bool{false, true} {
			label := fmt.Sprintf("q=%d/instrument=%v", quantum, instrument)
			opt := shift.Options{Instrument: instrument, Quantum: quantum}
			sources := []shift.Source{{Name: "threads.mc", Text: src}}
			ref, got := inlineVsDecoupled(t, label, sources, shift.NewWorld, opt)
			if ref.Trap != nil || ref.ExitStatus != 0 {
				t.Fatalf("%s: inline run not clean: trap=%v exit=%d", label, ref.Trap, ref.ExitStatus)
			}
			compareResults(t, label, ref, got)
		}
	}
	// UnsafePreempt: both checkers stand their strong checks down at the
	// first spawn; the runs must still agree on all observables.
	opt := shift.Options{Instrument: true, Quantum: 7, UnsafePreempt: true}
	sources := []shift.Source{{Name: "threads.mc", Text: src}}
	ref, got := inlineVsDecoupled(t, "unsafe-preempt", sources, shift.NewWorld, opt)
	compareResults(t, "unsafe-preempt", ref, got)
}

// TestDecoupledComposesWithOracle runs both checkers in the same run:
// the oracle hooks first (inline abort semantics), the sink checker rides
// behind over the same stream and host effects fan out to both. A clean
// workload must stay clean and agree with the oracle-only run.
func TestDecoupledComposesWithOracle(t *testing.T) {
	b := workload.All()[0]
	sc := b.RefScale / 8
	if sc < 64 {
		sc = 64
	}
	conf := b.Config()
	conf.Granularity = taint.Byte
	opt := shift.Options{Instrument: true, Policy: conf, Oracle: true}
	sources := []shift.Source{{Name: b.Name + ".mc", Text: b.Source}}
	prog, err := shift.Build(sources, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shift.Run(prog, b.World(sc), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Decoupled = 1
	got, err := shift.Run(prog, b.World(sc), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Oracle == nil || got.Pipe == nil {
		t.Fatal("combined run missing a checker")
	}
	compareResults(t, "oracle+pipe", ref, got)
	if got.Pipe.Divergence() != nil {
		t.Fatalf("sink checker diverged where the oracle did not: %v", got.Pipe.Divergence())
	}
}

// goroutineProbe is a step hook that records the most goroutines alive
// at any retirement.
type goroutineProbe struct{ peak int }

func (p *goroutineProbe) PreStep(*machine.Machine, *isa.Instruction) {}

func (p *goroutineProbe) PostStep(*machine.Machine, *isa.Instruction) error {
	if n := runtime.NumGoroutine(); n > p.peak {
		p.peak = n
	}
	return nil
}

// TestDecoupledStartsNoGoroutine: a checked RunOn applies every record on
// the execution goroutine, so no goroutine is alive during the run or
// left behind after it that was not there before.
func TestDecoupledStartsNoGoroutine(t *testing.T) {
	opt := shift.Options{Instrument: true, Policy: workload.HTTPDConfig(), Decoupled: 1}
	prog, err := shift.Build([]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	world := workload.HTTPDWorld(2, 256)
	world.HeapBase, world.StackTop = img.HeapBase, img.StackTop
	mach := img.NewMachine()
	probe := &goroutineProbe{}
	mach.Hook = probe // RunOn composes the checker behind it
	before := runtime.NumGoroutine()
	res, err := shift.RunOn(mach, world, opt)
	if err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	if res.Trap != nil || res.Pipe == nil || res.Pipe.Stats.Records.Load() == 0 {
		t.Fatalf("checked run: trap %v, checker %v", res.Trap, res.Pipe)
	}
	if probe.peak != before || after != before {
		t.Errorf("goroutines: %d before, peak %d during, %d after the checked run; want no change", before, probe.peak, after)
	}
}

// recordCounter is a step hook that counts the steps a checker observes
// and the retirement records it applies: every non-squashed instruction
// the encoder accepts.
type recordCounter struct {
	enc         oracle.Encoder
	rec         oracle.Rec
	steps, recs uint64
}

func (h *recordCounter) PreStep(m *machine.Machine, ins *isa.Instruction) { h.enc.Capture(m, ins) }

func (h *recordCounter) PostStep(m *machine.Machine, ins *isa.Instruction) error {
	h.steps++
	if !h.enc.Squashed() && h.enc.Encode(m, ins, &h.rec) {
		h.recs++
	}
	return nil
}

// TestDecoupledPublishesOnEveryExit: a checked run that ends in an alert
// or a trap still publishes the checkers' counters. The UseAfterFree
// exploit ends in an L1 NaT-consumption alert after ~1,100 retirements,
// and a budget of 500 ends the same run in a trap first; in both, each
// checker's Records and Steps must equal what it applied and observed,
// not the counts at the last sink before the end.
func TestDecoupledPublishesOnEveryExit(t *testing.T) {
	a := attacks.UseAfterFree
	opt := shift.Options{Instrument: true, Policy: a.Config(), Oracle: true, Decoupled: 1}
	prog, err := shift.Build([]shift.Source{{Name: a.Program, Text: a.Source}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		budget uint64
	}{{"alert", 0}, {"budget", 500}} {
		world := a.Exploit()
		world.HeapBase, world.StackTop = img.HeapBase, img.StackTop
		mach := img.NewMachine()
		count := &recordCounter{}
		mach.Hook = count // RunOn composes the checkers behind it
		opt.Budget = tc.budget
		res, err := shift.RunOn(mach, world, opt)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case tc.budget == 0 && (res.Alert == nil || res.Alert.Violation.Policy != "L1"):
			t.Fatalf("%s: alert %v, trap %v; want an L1 alert", tc.name, res.Alert, res.Trap)
		case tc.budget != 0 && (res.Trap == nil || res.Trap.Kind != machine.TrapBudget):
			t.Fatalf("%s: trap %v; want budget expiry", tc.name, res.Trap)
		}
		for name, c := range map[string]*oracle.Checker{"oracle": res.Oracle, "sink": res.Pipe} {
			if got := c.Stats.Records.Load(); got != count.recs || got == 0 {
				t.Errorf("%s: %s checker publishes %d records, applied %d", tc.name, name, got, count.recs)
			}
			if got := c.Stats.Steps.Load(); got != count.steps {
				t.Errorf("%s: %s checker publishes %d steps, observed %d", tc.name, name, got, count.steps)
			}
		}
	}
}
