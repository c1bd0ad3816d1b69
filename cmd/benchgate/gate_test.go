package main

import (
	"math"
	"strings"
	"testing"
)

// goodReport is a measurement that should pass every gate.
func goodReport() *Report {
	return &Report{
		BlockNsPerOp:          100,
		InterpNsPerOp:         300,
		UntracedNsPerOp:       101,
		BlockSpeedup:          3.0,
		UntracedOverhead:      0.01,
		CheckedInlineNsPerOp:  10000,
		CheckedTagpipeNsPerOp: 4000,
		TagpipeSpeedup:        2.5,
		PooledReqPerSec:       1400,
		PooledP99Ns:           20e6,
		PoolSize:              4,
		SelectiveFullNsPerOp:  9000,
		SelectiveNsPerOp:      3000,
		SelectiveSpeedup:      3.0,
		SelectiveSitesKept:    5,
		SelectiveSitesSkip:    120,
	}
}

func goodBaseline() *Report {
	return &Report{BlockSpeedup: 3.0, PooledReqPerSec: 1400, PooledP99Ns: 20e6, SelectiveSpeedup: 3.0}
}

func gate(rep, base *Report) []string {
	return gateFailures(rep, base, 0.05, 0.02, 1.5, 0.40, 0.25)
}

func TestGatePassesCleanReport(t *testing.T) {
	if fails := gate(goodReport(), goodBaseline()); len(fails) != 0 {
		t.Errorf("clean report failed the gate: %v", fails)
	}
}

// A baseline file missing block_speedup decodes to 0, which used to
// make the floor 0 and pass any regression. It must fail loudly now.
func TestGateMissingBaselineKey(t *testing.T) {
	fails := gate(goodReport(), &Report{})
	if len(fails) == 0 {
		t.Fatal("zero-value baseline passed the gate")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "baseline") {
		t.Errorf("failure does not name the baseline: %v", fails)
	}
}

// Zero and negative ns-per-op are measurement bugs, not fast code.
func TestGateDegenerateDurations(t *testing.T) {
	for _, mutate := range []func(*Report){
		func(r *Report) { r.BlockNsPerOp = 0 },
		func(r *Report) { r.InterpNsPerOp = -5 },
		func(r *Report) { r.UntracedNsPerOp = math.Inf(1) },
		func(r *Report) { r.CheckedInlineNsPerOp = 0 },
		func(r *Report) { r.CheckedTagpipeNsPerOp = -1 },
	} {
		rep := goodReport()
		mutate(rep)
		if fails := gate(rep, goodBaseline()); len(fails) == 0 {
			t.Errorf("degenerate report %+v passed the gate", rep)
		}
	}
}

// NaN compares false against every threshold; the gate must reject NaN
// ratios explicitly rather than inherit a silent pass.
func TestGateNaNRatios(t *testing.T) {
	for _, mutate := range []func(*Report){
		func(r *Report) { r.BlockSpeedup = math.NaN() },
		func(r *Report) { r.UntracedOverhead = math.NaN() },
		func(r *Report) { r.TagpipeSpeedup = math.NaN() },
	} {
		rep := goodReport()
		mutate(rep)
		fails := gate(rep, goodBaseline())
		if len(fails) == 0 {
			t.Errorf("NaN report %+v passed the gate", rep)
		}
		if !strings.Contains(strings.Join(fails, "\n"), "degenerate") {
			t.Errorf("NaN not reported as degenerate: %v", fails)
		}
	}
}

func TestGateSpeedupRegression(t *testing.T) {
	rep := goodReport()
	rep.BlockSpeedup = 2.0 // baseline 3.0, slack 5% -> floor 2.85
	if fails := gate(rep, goodBaseline()); len(fails) != 1 {
		t.Errorf("speedup regression: %v", fails)
	}
}

func TestGateUntracedOverhead(t *testing.T) {
	rep := goodReport()
	rep.UntracedOverhead = 0.05
	fails := gate(rep, goodBaseline())
	if len(fails) != 1 || !strings.Contains(fails[0], "untraced") {
		t.Errorf("overhead breach: %v", fails)
	}
}

// The sink-granular checking floor binds on every host, whatever its
// core count, and is absolute: an old baseline without the checked
// fields cannot mask it.
func TestGateTagpipeFloor(t *testing.T) {
	rep := goodReport()
	rep.TagpipeSpeedup = 1.2
	fails := gate(rep, goodBaseline())
	if len(fails) != 1 || !strings.Contains(fails[0], "floor") {
		t.Errorf("tagpipe floor breach: %v", fails)
	}
	// Disabled floor (0) never binds.
	if fails := gateFailures(rep, goodBaseline(), 0.05, 0.02, 0, 0.40, 0.25); len(fails) != 0 {
		t.Errorf("disabled tagpipe floor still binds: %v", fails)
	}
}

// The pooled-server gate: baseline-relative throughput floor and p99
// ceiling, skipped for pre-pooled baselines, loud on degenerate
// measurements even then.
func TestGatePooledServer(t *testing.T) {
	rep := goodReport()
	rep.PooledReqPerSec = 700 // baseline 1400, slack 40% -> floor 840
	fails := gate(rep, goodBaseline())
	if len(fails) != 1 || !strings.Contains(fails[0], "pooled throughput") {
		t.Errorf("throughput collapse: %v", fails)
	}

	rep = goodReport()
	rep.PooledP99Ns = 100e6 // baseline 20ms, slack 40% -> ceiling 28ms
	fails = gate(rep, goodBaseline())
	if len(fails) != 1 || !strings.Contains(fails[0], "pooled p99") {
		t.Errorf("p99 blowup: %v", fails)
	}

	// A baseline from before the pooled measurement existed (both pooled
	// keys decode to 0) skips the relative properties...
	rep = goodReport()
	rep.PooledReqPerSec = 1 // would fail any floor
	if fails := gate(rep, &Report{BlockSpeedup: 3.0}); len(fails) != 0 {
		t.Errorf("pre-pooled baseline should skip the relative gate: %v", fails)
	}

	// ...but a degenerate measurement fails regardless of the baseline.
	for _, mutate := range []func(*Report){
		func(r *Report) { r.PooledReqPerSec = 0 },
		func(r *Report) { r.PooledP99Ns = math.NaN() },
	} {
		rep := goodReport()
		mutate(rep)
		fails := gate(rep, &Report{BlockSpeedup: 3.0})
		if len(fails) != 1 || !strings.Contains(fails[0], "degenerate pooled") {
			t.Errorf("degenerate pooled measurement: %v", fails)
		}
	}
}

// The selective gate: degenerate measurements fail, an inert analysis
// (no skipped sites) fails, a regressed speedup against the baseline
// fails, and a baseline without the selective key skips the ratio check
// but still demands a sane measurement.
func TestGateSelectiveProperty(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"degenerate full", func(r *Report) { r.SelectiveFullNsPerOp = 0 }, "degenerate selective"},
		{"degenerate selective", func(r *Report) { r.SelectiveNsPerOp = math.Inf(1) }, "degenerate selective"},
		{"nan ratio", func(r *Report) { r.SelectiveSpeedup = math.NaN() }, "selective_speedup"},
		{"inert pruning", func(r *Report) { r.SelectiveSitesSkip = 0 }, "skipped no sites"},
		{"regressed", func(r *Report) { r.SelectiveSpeedup = 1.1 }, "below floor"},
	} {
		rep := goodReport()
		tc.mutate(rep)
		fails := gate(rep, goodBaseline())
		if len(fails) == 0 {
			t.Errorf("%s: passed the gate", tc.name)
			continue
		}
		if !strings.Contains(strings.Join(fails, "\n"), tc.want) {
			t.Errorf("%s: failures %v do not mention %q", tc.name, fails, tc.want)
		}
	}

	// Pre-selective baseline: ratio check skipped, measurement checks kept.
	old := goodBaseline()
	old.SelectiveSpeedup = 0
	rep := goodReport()
	rep.SelectiveSpeedup = 1.1 // would fail against the refreshed baseline
	if fails := gate(rep, old); len(fails) != 0 {
		t.Errorf("old baseline should skip the selective ratio: %v", fails)
	}
	rep.SelectiveNsPerOp = 0
	if fails := gate(rep, old); len(fails) == 0 {
		t.Error("degenerate measurement passed with an old baseline")
	}
}
