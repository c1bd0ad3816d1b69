package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricSpec names one reported metric. The lists below must match
// BENCHMARK.json at the repository root (see names_test.go).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"host_slowdown", "x", "lower"},
	{"checker_slowdown", "x", "lower"},
	{"sim_slowdown", "x", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricSpec{
	{"http.transport_us", "us", "lower"},
	{"pool.run_us", "us", "lower"},
	{"pool.acquire_us", "us", "lower"},
	{"pool.release_us", "us", "lower"},
	{"pool.restored_pages_per_req", "count", "lower"},
	{"pool.cleared_tag_pages_per_req", "count", "lower"},
	{"shift.run_us", "us", "lower"},
	{"tagpipe.overhead_us", "us", "lower"},
	{"tagpipe.records_per_req", "count", "lower"},
	{"tagpipe.drains_per_req", "count", "lower"},
	{"tagpipe.sweeps_per_req", "count", "lower"},
	{"tagpipe.unit_checks_per_req", "count", "lower"},
	{"tagpipe.stalls_per_req", "count", "lower"},
	{"forensics.render_us", "us", "lower"},
	{"machine.retired_per_req", "count", "lower"},
	{"go.alloc_kb_per_req", "KB", "lower"},
	{"go.gc_per_1k_req", "count", "lower"},
	{"shift.build_ms", "ms", "lower"},
	{"machine.bare_mips", "MIPS", "higher"},
	{"machine.hooked_mips", "MIPS", "higher"},
	{"tagpipe.overhead_ms", "ms", "lower"},
	{"sim.cycles", "count", "lower"},
	{"machine.retired", "count", "lower"},
	{"tagpipe.records", "count", "lower"},
	{"tagpipe.unit_checks", "count", "lower"},
	{"residual_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"load.p50_ms", "ms", "lower"},
	{"load.p99_ms", "ms", "lower"},
	{"load.slo_rps", "1/s", "higher"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validSpecs checks names and units against the benchmark's naming
// rules and that no name repeats across both lists.
func validSpecs(lists ...[]metricSpec) error {
	seen := map[string]bool{}
	for _, l := range lists {
		for _, s := range l {
			if !nameRE.MatchString(s.Name) {
				return fmt.Errorf("metric name %q: want [A-Za-z0-9_.-], starting with a letter or digit, at most 64", s.Name)
			}
			if !unitRE.MatchString(s.Unit) {
				return fmt.Errorf("metric %s: unit %q: want at most 16 of [A-Za-z0-9_/%%.-]", s.Name, s.Unit)
			}
			if s.Better != "lower" && s.Better != "higher" {
				return fmt.Errorf("metric %s: better %q", s.Name, s.Better)
			}
			if seen[s.Name] {
				return fmt.Errorf("metric %s named twice", s.Name)
			}
			seen[s.Name] = true
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultJSON renders the run's result line. values must hold exactly the
// metrics of specs, each a finite number.
func resultJSON(specs []metricSpec, values map[string]float64, t *tally) ([]byte, error) {
	if len(values) != len(specs) {
		var got []string
		for k := range values {
			got = append(got, k)
		}
		sort.Strings(got)
		return nil, fmt.Errorf("measured %d metrics %v, want %d", len(values), got, len(specs))
	}
	line := resultLine{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		line.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if line.Attempted < 1 {
		return nil, errors.New("no operations attempted")
	}
	return json.Marshal(line)
}
