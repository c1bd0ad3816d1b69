package shift_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"shift/internal/metrics"
	"shift/internal/shift"
	"shift/internal/trace"
	"shift/internal/workload"
)

// A traced webserver attack run must record the full lifecycle — taint
// birth on the network channel, tag-bitmap writes, the failing policy
// check — and the forensic report must tie the violation back to the
// tainted input through both provenance and the trace tail.
func TestTracedViolationReport(t *testing.T) {
	world := shift.NewWorld()
	req := make([]byte, workload.HTTPDRequestSize)
	copy(req, "GET ../../../../etc/passwd")
	world.NetIn = req

	tr := trace.New(0)
	reg := metrics.NewRegistry()
	res, err := shift.BuildAndRun(
		[]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}},
		world,
		shift.Options{Instrument: true, Policy: workload.HTTPDConfig(), Trace: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alert == nil {
		t.Fatal("traversal went undetected")
	}

	var sawTaint, sawTagWrite, sawCheck, sawViolation bool
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindTaint:
			if ev.Name == "network" {
				sawTaint = true
			}
		case trace.KindTagWrite:
			sawTagWrite = true
		case trace.KindPolicyCheck:
			if ev.Name == "open" {
				sawCheck = true
			}
		case trace.KindViolation:
			sawViolation = true
		}
	}
	if !sawTaint || !sawTagWrite || !sawCheck || !sawViolation {
		t.Errorf("lifecycle incomplete: taint=%v tagWrite=%v check=%v violation=%v",
			sawTaint, sawTagWrite, sawCheck, sawViolation)
	}

	rep := res.Report()
	if rep == nil {
		t.Fatal("no forensic report for an alerted run")
	}
	if len(rep.Trail) == 0 {
		t.Fatal("report carries no trace tail")
	}
	// The tail must cover the tainted input's provenance: the network
	// birth event and the violation that ended the run.
	var tailTaint, tailViolation bool
	for _, ev := range rep.Trail {
		if ev.Kind == trace.KindTaint && ev.Name == "network" {
			tailTaint = true
		}
		if ev.Kind == trace.KindViolation {
			tailViolation = true
		}
	}
	if !tailTaint || !tailViolation {
		t.Errorf("trace tail does not cover the provenance chain: taint=%v violation=%v", tailTaint, tailViolation)
	}
	if len(rep.Provenance) == 0 || rep.Provenance[0].Channel != "network" {
		t.Errorf("provenance = %+v, want the network channel", rep.Provenance)
	}
	text := rep.String()
	for _, want := range []string{"violation:", "signature:", "provenance:", "trace tail", "name=network"} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}

	// The metrics side saw the same run.
	if reg.Counter("shift_tag_writes_total").Value() == 0 {
		t.Error("no tag writes counted on an instrumented run")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shift_tlb_hits ", "shift_tlb_misses ", "shift_syscall_cycles_bucket"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// The JSONL export of a real run must parse line by line — the contract
// the external tooling (and Perfetto via the Chrome export) relies on.
func TestTraceExportsParse(t *testing.T) {
	world := workload.HTTPDWorld(3, 512)
	tr := trace.New(0)
	if _, err := shift.BuildAndRun(
		[]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}},
		world,
		shift.Options{Instrument: true, Policy: workload.HTTPDConfig(), Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Total() == 0 {
		t.Fatal("traced run recorded nothing")
	}

	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&jsonl)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev trace.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d %q: %v", lines+1, sc.Text(), err)
		}
		lines++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if lines == 0 {
		t.Fatal("empty JSONL export")
	}

	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not a trace document: %v", err)
	}
	if len(doc.TraceEvents) != lines {
		t.Errorf("Chrome export has %d events, JSONL has %d", len(doc.TraceEvents), lines)
	}
}

// Tracing plus the lockstep oracle share the retirement stream through
// MultiHook; both must observe the run.
func TestTraceComposesWithOracle(t *testing.T) {
	world := workload.HTTPDWorld(2, 256)
	tr := trace.New(0)
	res, err := shift.BuildAndRun(
		[]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}},
		world,
		shift.Options{Instrument: true, Policy: workload.HTTPDConfig(), Trace: tr, Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatalf("oracle+trace run trapped: %v", res.Trap)
	}
	if res.Oracle == nil || res.Oracle.Stats.Steps.Load() == 0 {
		t.Fatal("oracle saw no steps with tracing attached")
	}
	if tr.Total() == 0 {
		t.Fatal("tracer saw no events with the oracle attached")
	}
}

// A metered run under the sink-granular checker exports its record and
// drain counts, and none of the ring-era series (segments, stalls, lag),
// which could only read zero.
func TestSinkCheckerMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	res, err := shift.BuildAndRun(
		[]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}},
		workload.HTTPDWorld(2, 256),
		shift.Options{Instrument: true, Policy: workload.HTTPDConfig(), Decoupled: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil || res.Pipe == nil {
		t.Fatalf("checked run: trap %v, checker %v", res.Trap, res.Pipe)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for name, want := range map[string]uint64{
		"shift_tagpipe_records_total": res.Pipe.Stats.Records.Load(),
		"shift_tagpipe_drains_total":  res.Pipe.Stats.Drains.Load(),
	} {
		if want == 0 {
			t.Errorf("%s: the checker counted nothing", name)
		}
		if line := fmt.Sprintf("%s %d\n", name, want); !strings.Contains(text, line) {
			t.Errorf("exposition lacks %q:\n%s", line, text)
		}
	}
	for _, gone := range []string{"shift_tagpipe_segments_total", "shift_tagpipe_stalls_total", "shift_tagpipe_lag_records"} {
		if strings.Contains(text, gone) {
			t.Errorf("exposition still carries %s", gone)
		}
	}
}

// An untraced run must leave no observability state behind — the
// zero-cost default path.
func TestUntracedRunHasNoTrace(t *testing.T) {
	res, err := shift.BuildAndRun(
		[]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}},
		workload.HTTPDWorld(1, 128),
		shift.Options{Instrument: true, Policy: workload.HTTPDConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil || res.World.Trace != nil {
		t.Error("untraced run carries a tracer")
	}
}
