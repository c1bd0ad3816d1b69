// Package shift is the public façade of the SHIFT reproduction: build a
// minic program with or without taint instrumentation, run it under a
// policy engine, and collect performance accounting and security alerts.
//
// The division of labour follows the paper's thesis (§3): the machine and
// instrumentation provide the *mechanism* (NaT-bit propagation in
// registers, a bitmap in memory), while policies are pure software — a
// configuration of taint sources and sink checks that can change without
// touching the tracking machinery.
package shift

import (
	"fmt"

	"shift/internal/asm"
	"shift/internal/codegen"
	"shift/internal/forensics"
	"shift/internal/instrument"
	"shift/internal/isa"
	"shift/internal/lang"
	"shift/internal/loader"
	"shift/internal/machine"
	"shift/internal/metrics"
	"shift/internal/oracle"
	"shift/internal/policy"
	"shift/internal/rtlib"
	"shift/internal/taint"
	"shift/internal/trace"
)

// Source is one minic translation unit.
type Source struct {
	Name string
	Text string
}

// Options selects how a program is built and run.
type Options struct {
	// Instrument enables the SHIFT pass; false builds the baseline.
	Instrument bool
	// Granularity is byte- or word-level tracking (default byte).
	Granularity taint.Granularity
	// Features enables the paper's proposed enhancement instructions on
	// both the pass and the machine.
	Features machine.Features
	// Policy configures sources, sinks and granularity overrides; nil
	// uses policy.DefaultConfig when instrumenting.
	Policy *policy.Config
	// NaTPerFunction selects the §4.4 ablation (regenerate the NaT
	// source at every function entry).
	NaTPerFunction bool
	// NaTPerUse regenerates the NaT source at every tainting site
	// (the ablation's expensive extreme).
	NaTPerUse bool
	// Optimize enables the §4.4/§6.4 future-work compiler
	// optimizations (kept mask register, tag-address reuse).
	Optimize bool
	// UserGuards inserts §3.3.3 chk.s checks before critical uses so
	// violations are handled at user level instead of by a hardware
	// fault.
	UserGuards bool
	// SerializedTags makes byte-level bitmap updates atomic via a
	// cmpxchg retry loop, closing the §4.4 multi-threading hazard.
	SerializedTags bool
	// UnsafePreempt lets the scheduler end a time slice between a data
	// store and its tag update (machine.Machine.UnsafePreempt), exposing
	// the §4.4 bitmap hazard the default tag-coherent scheduling closes.
	// With Oracle set, the strong cross-checks stand down at the first
	// spawn in this mode, as they would otherwise flag the hazard itself.
	UnsafePreempt bool
	// NoRuntime skips linking the runtime library (for tests that
	// provide their own primitives).
	NoRuntime bool
	// Budget bounds retired instructions (0 = machine default).
	Budget uint64
	// Quantum is the scheduler time slice in cycles for multi-threaded
	// guests (0 = machine.DefaultQuantum). Single-threaded programs are
	// unaffected.
	Quantum uint64
	// Profile counts retirements per instruction on the main thread
	// (inspect via Result.Machine.Hotspots / FunctionProfile).
	Profile bool
	// Oracle runs a lockstep reference DIFT engine alongside execution,
	// cross-checking register NaT bits and the tag bitmap against plain
	// shadow-taint interpretation. A disagreement stops the run with a
	// TrapOracle carrying a full divergence report (Result.Trap).
	Oracle bool
	// Decoupled > 0 runs the checker at Sink granularity (oracle.Checker):
	// each retired instruction's record is applied to the shadow state as
	// it retires, and the strong cross-checks run at policy sinks and at
	// the end of the run instead of at every original-instruction
	// boundary (see DESIGN.md §4c). Verdicts are equivalent to the
	// lockstep oracle's. Composable with Oracle for differential testing.
	Decoupled int
	// Costs overrides the cycle cost model (nil = machine defaults).
	Costs *machine.Costs
	// Engine selects the execution engine of hook-free runs: the
	// translated-block engine (default) or the reference interpreter.
	// The engines are bit-identical in every architectural observable;
	// interp exists as the oracle's ground truth and for differential
	// testing. A run that attaches a StepHook or Stats (Oracle,
	// Decoupled, Trace, Metrics, Profile) always executes on the
	// interpreter.
	Engine machine.Engine
	// Trace, when non-nil, records taint-lifecycle events into the given
	// flight recorder: both the OS-boundary events (taint birth, policy
	// checks, violations, spawns) and the per-retirement propagation
	// events a machine hook derives (spec-load defers, NaT sets, tag-
	// bitmap writes, chk.s recoveries, slices, syscall latency).
	Trace *trace.Tracer
	// Metrics, when non-nil, receives the run's aggregate instruments
	// (tag-op counts, TLB/cache hit rates, slice occupancy, syscall
	// latency histograms). Independent of Trace; either may be set alone.
	Metrics *metrics.Registry
	// Selective makes the instrumentation pass run the whole-program
	// taint-reachability analysis (internal/staticcheck/reach) and leave
	// provably taint-unreachable sites uninstrumented. The analysis'
	// taint seeds follow the policy's Sources channels, so a selective
	// build is specific to its policy configuration.
	Selective bool
	// InstrStats, when non-nil, receives the instrumentation pass' site
	// accounting (total / kept / skipped) from Build.
	InstrStats *instrument.Stats
}

// Build parses, checks, compiles and (optionally) instruments sources
// together with the runtime library.
func Build(sources []Source, opt Options) (*isa.Program, error) {
	var files []*lang.File
	if !opt.NoRuntime {
		rt, err := lang.Parse("rtlib.mc", rtlib.Source)
		if err != nil {
			return nil, fmt.Errorf("shift: runtime library: %w", err)
		}
		files = append(files, rt)
	}
	for _, s := range sources {
		f, err := lang.Parse(s.Name, s.Text)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	unit, err := lang.Check(files...)
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Compile(unit)
	if err != nil {
		return nil, err
	}
	return instrumentProg(prog, opt)
}

// BuildAsm assembles one hand-written assembly unit and (optionally)
// instruments it under the same options as Build. It exists for
// scenarios written below minic's level — the attack corpus'
// speculative-leak gadget needs ld.s/chk.s sequences minic never emits.
func BuildAsm(name, text string, opt Options) (*isa.Program, error) {
	prog, err := asm.Assemble(text, asm.Options{})
	if err != nil {
		return nil, fmt.Errorf("shift: %s: %w", name, err)
	}
	return instrumentProg(prog, opt)
}

// instrumentProg applies the SHIFT pass per the run options (the shared
// tail of Build and BuildAsm).
func instrumentProg(prog *isa.Program, opt Options) (*isa.Program, error) {
	if !opt.Instrument {
		return prog, nil
	}
	conf := opt.Policy
	if conf == nil {
		conf = policy.DefaultConfig()
	}
	gran := opt.Granularity
	if opt.Policy != nil {
		gran = conf.Granularity
	}
	return instrument.Apply(prog, instrument.Options{
		Gran:             gran,
		Feat:             opt.Features,
		NaTPerFunction:   opt.NaTPerFunction,
		NaTPerUse:        opt.NaTPerUse,
		Optimize:         opt.Optimize,
		UserGuards:       opt.UserGuards,
		SerializedTags:   opt.SerializedTags,
		Permissive:       conf.NoTrack,
		Selective:        opt.Selective,
		SelectiveSources: conf.Sources,
		Stats:            opt.InstrStats,
	})
}

// Alert is a detected policy violation.
type Alert struct {
	Violation *policy.Violation
	Trap      *machine.Trap // underlying hardware fault, if any
}

// String renders the alert.
func (a *Alert) String() string {
	if a.Violation != nil {
		return a.Violation.Error()
	}
	return a.Trap.Error()
}

// ValidateTagpipeFlag checks a -tagpipe flag value, which sets
// Options.Decoupled: 1 runs the sink-granular checker, 0 runs without
// it. Every command that takes the flag rejects anything else with this
// message.
func ValidateTagpipeFlag(n int) error {
	if n != 0 && n != 1 {
		return fmt.Errorf("invalid -tagpipe value %d (want 1 = check with the sink-granular checker or 0 = no sink-granular checker)", n)
	}
	return nil
}

// Result collects everything a run produced.
type Result struct {
	ExitStatus int64
	Alert      *Alert        // non-nil when a policy violation stopped the run
	Trap       *machine.Trap // non-nil on a non-policy trap (a real bug)

	Cycles        uint64
	CyclesByClass [isa.NumCostClasses]uint64
	Retired       uint64
	World         *World
	Machine       *machine.Machine
	// Oracle is the checker at Boundary granularity when Options.Oracle
	// was set; its Divergence() and Stats report what was cross-checked.
	Oracle *oracle.Checker
	// Pipe is the checker at Sink granularity when Options.Decoupled was
	// set; its Divergence() and Stats report what was propagated and
	// checked.
	Pipe *oracle.Checker
	// Trace is the flight recorder when Options.Trace was set.
	Trace *trace.Tracer
}

// Report assembles the forensic incident bundle for the run's alert:
// attack signature, token provenance against the world's input channels,
// and the flight recorder's tail when the run was traced. Nil when the
// run raised no alert.
func (r *Result) Report() *forensics.Report {
	if r.Alert == nil || r.Alert.Violation == nil {
		return nil
	}
	w := r.World
	return forensics.BuildReport(r.Alert.Violation, forensics.Channels{
		Network: w.NetIn,
		Stdin:   w.Stdin,
		Args:    w.Args,
		Files:   w.Files,
	}, r.Trace, 0)
}

// Run loads and executes a program against a world. When opt.Instrument
// is set the world is wired with a tag space and policy engine; taints
// flow from the world's sources and violations surface as alerts.
func Run(prog *isa.Program, world *World, opt Options) (*Result, error) {
	img, err := loader.Load(prog)
	if err != nil {
		return nil, err
	}
	if world == nil {
		world = NewWorld()
	}
	world.HeapBase = img.HeapBase
	world.StackTop = img.StackTop
	return RunOn(img.NewMachine(), world, opt)
}

// RunOn executes world on an already-constructed machine: the full Run
// wiring — tag space, policy engine, oracle, sink-granular checker,
// observability hooks, scheduler — applied to a machine the caller
// built. This is the reuse seam for pooled guests (internal/pool):
// a recycled machine restored from a snapshot re-enters here for each
// request instead of paying loader.Load again. The caller owns the
// pieces Run normally derives from the loader image: world.HeapBase
// and world.StackTop must be set, and a pre-created world.Tags /
// world.Engine are kept (so a pool can Clear one tag space across
// runs); when nil and opt.Instrument is set, fresh ones are created
// over mach.Mem.
func RunOn(mach *machine.Machine, world *World, opt Options) (*Result, error) {
	if world == nil {
		world = NewWorld()
	}
	conf := opt.Policy
	if conf == nil {
		conf = policy.DefaultConfig()
	}
	if opt.Instrument {
		gran := opt.Granularity
		if opt.Policy != nil {
			gran = conf.Granularity
		}
		if world.Tags == nil {
			world.Tags = taint.NewSpace(mach.Mem, gran)
		}
		if world.Engine == nil {
			world.Engine = policy.NewEngine(conf)
		}
	}

	mach.OS = world
	mach.Engine = opt.Engine
	mach.Feat = opt.Features
	mach.Budget = opt.Budget
	mach.UnsafePreempt = opt.UnsafePreempt
	if opt.Profile {
		mach.EnableProfile()
	}
	if opt.Costs != nil {
		mach.Costs = *opt.Costs
	}

	// Both checkers ride the StepHook retirement stream and the
	// host-effect notifications. With both requested the lockstep checker
	// hooks first, keeping its per-boundary abort semantics; the sink
	// checker then sees exactly the same stream. Observability hooks in
	// last.
	checkCfg := oracle.Config{Tags: world.Tags, Instrumented: opt.Instrument, UnsafePreempt: opt.UnsafePreempt}
	var orc, pipe *oracle.Checker
	world.Effects = world.Effects[:0]
	if opt.Oracle {
		orc = oracle.New(checkCfg, oracle.Boundary)
		world.Effects = append(world.Effects, orc)
	}
	if opt.Decoupled > 0 {
		pipe = oracle.New(checkCfg, oracle.Sink)
		world.Effects = append(world.Effects, pipe)
	}
	for _, c := range world.Effects {
		addHook(mach, c)
	}
	var obs *trace.MachineHook
	if opt.Trace != nil || opt.Metrics != nil {
		obs = trace.NewMachineHook(opt.Trace, opt.Metrics)
		addHook(mach, obs)
		world.Trace = opt.Trace
	}
	if opt.Metrics != nil && pipe != nil {
		s := &pipe.Stats
		opt.Metrics.GaugeFunc("shift_tagpipe_records_total", func() uint64 { return s.Records.Load() })
		opt.Metrics.GaugeFunc("shift_tagpipe_drains_total", func() uint64 { return s.Drains.Load() })
	}
	if opt.Metrics != nil {
		m := mach.Mem
		opt.Metrics.GaugeFunc("shift_tlb_hits", func() uint64 { h, _ := m.TLBStats(); return h })
		opt.Metrics.GaugeFunc("shift_tlb_misses", func() uint64 { _, ms := m.TLBStats(); return ms })
		if c := m.Cache; c != nil {
			opt.Metrics.GaugeFunc("shift_cache_hits", func() uint64 { return c.Hits })
			opt.Metrics.GaugeFunc("shift_cache_misses", func() uint64 { return c.Misses })
		}
		// Only the process-wide eviction count: a metered run is hooked,
		// so it executes on the interpreter and compiles no blocks.
		opt.Metrics.GaugeFunc("shift_block_cache_evictions", machine.TranslationEvictions)
	}

	sched := machine.NewScheduler(mach)
	sched.Quantum = opt.Quantum
	world.Sched = sched

	trap := sched.Run()
	if obs != nil {
		obs.Flush()
	}
	for _, c := range world.Effects {
		if trap != nil {
			// An alert, a trap or budget expiry ended the run: there is
			// no final state to check, but the counters must be current.
			c.Publish()
			continue
		}
		// The run halted cleanly: the final state must still agree.
		if err := c.Finish(mach); err != nil {
			trap = &machine.Trap{Kind: machine.TrapOracle, PC: mach.PC, Ins: "<finish>", Err: err}
		}
	}
	res := &Result{
		ExitStatus: mach.ExitStatus,
		Cycles:     sched.TotalCycles(),
		Retired:    sched.TotalRetired(),
		World:      world,
		Machine:    mach,
		Oracle:     orc,
		Pipe:       pipe,
		Trace:      opt.Trace,
	}
	for _, th := range sched.Threads {
		for i, c := range th.CyclesByClass {
			res.CyclesByClass[i] += c
		}
	}
	if trap == nil {
		return res, nil
	}

	// Policy violations come back two ways: sink checks raise a host
	// trap wrapping a Violation; NaT-consumption faults classify via the
	// engine (L1–L3).
	if v, ok := trap.Err.(*policy.Violation); ok {
		res.Alert = &Alert{Violation: v, Trap: trap}
		return res, nil
	}
	if trap.Kind.IsNaTConsumption() && world.Engine != nil {
		if v := world.Engine.ClassifyTrap(trap, world.liveChannels()); v != nil {
			// Hardware-detected (L1–L3) violations bypass the syscall
			// sink path, so the trace event is recorded here.
			opt.Trace.Emit(trace.Event{Cycle: mach.Cycles, TID: mach.TID, PC: trap.PC, Kind: trace.KindViolation, Name: v.Policy})
			res.Alert = &Alert{Violation: v, Trap: trap}
			return res, nil
		}
	}
	res.Trap = trap
	return res, nil
}

// BuildAndRun is the one-call convenience used by examples and tests.
func BuildAndRun(sources []Source, world *World, opt Options) (*Result, error) {
	if opt.Selective && opt.Metrics != nil && opt.InstrStats == nil {
		opt.InstrStats = new(instrument.Stats)
	}
	prog, err := Build(sources, opt)
	if err != nil {
		return nil, err
	}
	if opt.Selective && opt.Metrics != nil {
		RegisterSelectiveMetrics(opt.Metrics, opt.InstrStats)
	}
	return Run(prog, world, opt)
}

// addHook composes h behind the machine's current step hook, if any.
func addHook(m *machine.Machine, h machine.StepHook) {
	if m.Hook != nil {
		m.Hook = machine.MultiHook{m.Hook, h}
	} else {
		m.Hook = h
	}
}

// RegisterSelectiveMetrics publishes a selective build's site accounting
// on reg: shift_selective_sites_kept / shift_selective_sites_skipped.
func RegisterSelectiveMetrics(reg *metrics.Registry, st *instrument.Stats) {
	if reg == nil || st == nil {
		return
	}
	reg.Gauge("shift_selective_sites_kept").Set(uint64(st.Kept))
	reg.Gauge("shift_selective_sites_skipped").Set(uint64(st.Skipped))
}
