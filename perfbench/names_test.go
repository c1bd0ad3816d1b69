package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The metrics the benchmark prints are exactly those BENCHMARK.json
// declares, with the same units and directions, and every name is made
// of [A-Za-z0-9_.-].
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if err := validSpecs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	var e2e []metricSpec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, c := range []struct {
		what      string
		file, got []metricSpec
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.what, len(c.file), len(c.got))
			continue
		}
		for i := range c.file {
			if c.file[i] != c.got[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", c.what, i, c.file[i], c.got[i])
			}
		}
	}
	if err := validSpecs(e2e, b.PerLayer); err != nil {
		t.Error(err)
	}
	for _, bad := range []string{"p50 ms", "_setup", "a/b", "", "x😀"} {
		if err := validSpecs([]metricSpec{{bad, "s", "lower"}}); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	var setup bool
	for _, m := range e2e {
		setup = setup || m == (metricSpec{"setup_s", "s", "lower"})
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
}

// BENCHMARK.json names exactly the workloads the benchmark runs, each
// with a one-line reason.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	want := []string{"spec-checked"}
	for n := range serveWorkloads {
		want = append(want, n)
	}
	var got []string
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range b.Workloads {
		got = append(got, w.Name)
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %q: bad name or why %q", w.Name, w.Why)
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
		}
	}
}
