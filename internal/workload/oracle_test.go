package workload

import (
	"testing"

	"shift/internal/machine"
	"shift/internal/shift"
	"shift/internal/taint"
)

// TestOracleLockstepOverWorkloads runs every evaluation benchmark with
// the lockstep reference DIFT engine attached — uninstrumented (mechanical
// NaT-rule checks only) and instrumented at both granularities plus the
// enhanced/optimized variants — and requires zero divergences. This is
// the acceptance sweep for the tag/NaT machinery over realistic code.
func TestOracleLockstepOverWorkloads(t *testing.T) {
	modes := []struct {
		name string
		opt  shift.Options
	}{
		{"base", shift.Options{Oracle: true}},
		{"byte", shift.Options{Oracle: true, Instrument: true, Granularity: taint.Byte}},
		{"word", shift.Options{Oracle: true, Instrument: true, Granularity: taint.Word}},
		{"byte+enh", shift.Options{Oracle: true, Instrument: true, Granularity: taint.Byte,
			Features: machine.Features{SetClrNaT: true, NaTAwareCmp: true}}},
		{"word+opt", shift.Options{Oracle: true, Instrument: true, Granularity: taint.Word, Optimize: true}},
	}
	// Short mode (the -race CI stage) trims to the core modes and skips
	// the benchmarks with fixed-iteration kernels whose runtime doesn't
	// shrink with input scale; the full matrix runs in the regular suite.
	slow := map[string]bool{"vpr": true, "twolf": true, "mcf": true}
	if testing.Short() {
		modes = modes[:3] // base, byte, word
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if testing.Short() && slow[b.Name] {
				t.Skip("fixed-iteration kernel; covered by the non-short run")
			}
			sc := scale(b)
			for _, m := range modes {
				res := runBench(t, b, m.opt, sc)
				if res.Trap != nil {
					t.Fatalf("%s: %v", m.name, res.Trap)
				}
				if res.Alert != nil {
					t.Fatalf("%s: false positive under oracle: %v", m.name, res.Alert)
				}
				if d := res.Oracle.Divergence(); d != nil {
					t.Fatalf("%s: divergence: %v", m.name, d)
				}
				st := &res.Oracle.Stats
				if st.Steps.Load() == 0 {
					t.Fatalf("%s: oracle idle", m.name)
				}
				if m.opt.Instrument && (st.RegChecks.Load() == 0 || st.UnitChecks.Load() == 0) {
					t.Fatalf("%s: oracle not cross-checking: %d register checks, %d unit checks",
						m.name, st.RegChecks.Load(), st.UnitChecks.Load())
				}
			}
		})
	}
}

// TestOracleOverThreads: under the tag-coherent schedule a time slice
// can no longer end between a data store and its tag update, so the
// oracle keeps its full register and bitmap cross-checks live across
// spawns — no stand-down, at either granularity, across worker counts
// and scheduling quanta.
func TestOracleOverThreads(t *testing.T) {
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		for _, k := range []int{1, 4} {
			for _, q := range []uint64{0, 17} {
				conf := MTConfig()
				conf.Granularity = g
				res, err := shift.BuildAndRun(
					[]shift.Source{{Name: "mt.mc", Text: MTSource}},
					MTWorld(1024, k),
					shift.Options{Instrument: true, Policy: conf, Quantum: q, Oracle: true})
				if err != nil {
					t.Fatalf("%s k=%d q=%d: %v", g, k, q, err)
				}
				if res.Trap != nil || res.Alert != nil {
					t.Fatalf("%s k=%d q=%d: trap=%v alert=%v", g, k, q, res.Trap, res.Alert)
				}
				if d := res.Oracle.Divergence(); d != nil {
					t.Fatalf("%s k=%d q=%d: divergence: %v", g, k, q, d)
				}
				st := &res.Oracle.Stats
				if st.Steps.Load() == 0 || st.RegChecks.Load() == 0 || st.UnitChecks.Load() == 0 {
					t.Fatalf("%s k=%d q=%d: oracle not cross-checking: %d steps, %d register checks, %d unit checks",
						g, k, q, st.Steps.Load(), st.RegChecks.Load(), st.UnitChecks.Load())
				}
			}
		}
	}
}

// TestOracleChecksSharedUnitsAcrossThreads runs the shared-unit stress —
// 2 to 4 workers hammering the same tag bytes with alternating tainted
// and clean stores — under the full lockstep cross-check. The unit-check
// floor is the teeth: nearly every store in the program happens in a
// worker thread after the first spawn, so the old post-spawn stand-down
// would leave UnitChecks at the handful main contributed, while checked
// multithreaded tracking drives it past a thousand.
func TestOracleChecksSharedUnitsAcrossThreads(t *testing.T) {
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		for _, k := range []int{2, 3, 4} {
			for _, q := range []uint64{0, 23} {
				res, err := shift.BuildAndRun(
					[]shift.Source{{Name: "shared.mc", Text: ThreadedTaintSource}},
					ThreadedTaintWorld(k),
					shift.Options{Instrument: true, Policy: ThreadedTaintConfig(g), Quantum: q, Oracle: true})
				if err != nil {
					t.Fatalf("%s k=%d q=%d: %v", g, k, q, err)
				}
				if res.Trap != nil || res.Alert != nil {
					t.Fatalf("%s k=%d q=%d: trap=%v alert=%v", g, k, q, res.Trap, res.Alert)
				}
				if res.ExitStatus != 0 {
					t.Fatalf("%s k=%d q=%d: exit=%d (taint lost on shared units)", g, k, q, res.ExitStatus)
				}
				if d := res.Oracle.Divergence(); d != nil {
					t.Fatalf("%s k=%d q=%d: divergence: %v", g, k, q, d)
				}
				st := &res.Oracle.Stats
				if st.UnitChecks.Load() < 1000 {
					t.Fatalf("%s k=%d q=%d: only %d unit checks — strong checks stood down after spawn?",
						g, k, q, st.UnitChecks.Load())
				}
				if st.RegChecks.Load() == 0 {
					t.Fatalf("%s k=%d q=%d: no register cross-checks", g, k, q)
				}
			}
		}
	}
}
