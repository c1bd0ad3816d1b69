package main

import (
	"fmt"
	"math"
)

// finitePositive reports whether v is a usable measurement: a real,
// positive duration or ratio. Zero is not usable — an ns-per-op of 0
// means the benchmark never ran (or a baseline key was missing and
// decoded to Go's zero value), and a ratio built from it is garbage.
func finitePositive(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// gateFailures evaluates every gate property against the measured
// report and the checked-in baseline, returning one message per failed
// property (empty means PASS). It is deliberately paranoid about
// degenerate inputs: a missing baseline key decodes to 0, a division
// blowup yields NaN or Inf, and a comparison against either silently
// passes (NaN > x is always false) — all of those must be loud
// failures, never a green gate.
func gateFailures(rep, baseline *Report, ratioSlack, overheadMax, tagpipeFloor, pooledSlack, selectiveSlack float64) []string {
	var fails []string
	bad := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}

	// Measurement sanity: every duration this gate divides by or
	// compares with must be a real positive number.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"block_ns_per_op", rep.BlockNsPerOp},
		{"interp_ns_per_op", rep.InterpNsPerOp},
		{"untraced_ns_per_op", rep.UntracedNsPerOp},
	} {
		if !finitePositive(f.v) {
			bad("degenerate measurement: %s = %v", f.name, f.v)
		}
	}
	if !finitePositive(baseline.BlockSpeedup) {
		bad("baseline block_speedup = %v (missing key or corrupt baseline file)", baseline.BlockSpeedup)
	}

	// Property 1: block/interp speedup holds its baseline ratio.
	if finitePositive(rep.BlockSpeedup) && finitePositive(baseline.BlockSpeedup) {
		floor := baseline.BlockSpeedup * (1 - ratioSlack)
		if rep.BlockSpeedup < floor {
			bad("block/interp speedup %.3fx below floor %.3fx (baseline %.3fx - %.0f%% slack)",
				rep.BlockSpeedup, floor, baseline.BlockSpeedup, 100*ratioSlack)
		}
	} else if !finitePositive(rep.BlockSpeedup) {
		bad("degenerate ratio: block_speedup = %v", rep.BlockSpeedup)
	}

	// Property 2: the untraced path is free. NaN would compare false
	// against any threshold, so reject it explicitly.
	if math.IsNaN(rep.UntracedOverhead) || math.IsInf(rep.UntracedOverhead, 0) {
		bad("degenerate ratio: untraced_overhead = %v", rep.UntracedOverhead)
	} else if rep.UntracedOverhead > overheadMax {
		bad("untraced overhead %.2f%% exceeds %.2f%%", 100*rep.UntracedOverhead, 100*overheadMax)
	}

	// Property 3: sink-granular checking beats the per-boundary lockstep
	// oracle by an absolute floor, on every host: the sink checker runs
	// on the execution goroutine and needs no spare core. This floor is
	// not baseline-relative — the point of checking at sinks is a fixed
	// win over checking at every boundary, not parity with an older self.
	if tagpipeFloor > 0 {
		switch {
		case !finitePositive(rep.CheckedInlineNsPerOp) || !finitePositive(rep.CheckedTagpipeNsPerOp):
			bad("degenerate checked-run measurement: inline %v ns/op, tagpipe %v ns/op",
				rep.CheckedInlineNsPerOp, rep.CheckedTagpipeNsPerOp)
		case !finitePositive(rep.TagpipeSpeedup):
			bad("degenerate ratio: tagpipe_speedup = %v", rep.TagpipeSpeedup)
		case rep.TagpipeSpeedup < tagpipeFloor:
			bad("sink-granular checking speedup %.3fx below the %.2fx floor (inline %.0f ns/op, tagpipe %.0f ns/op)",
				rep.TagpipeSpeedup, tagpipeFloor, rep.CheckedInlineNsPerOp, rep.CheckedTagpipeNsPerOp)
		}
	}

	// Property 4: the pooled server holds its baseline throughput and
	// tail latency, with generous slack (serve-path numbers swing more
	// than single-engine ns/op on shared CI hosts). Skipped only when
	// the baseline predates the pooled measurement entirely; a
	// degenerate *measurement* is always a failure.
	if pooledSlack > 0 {
		if !finitePositive(rep.PooledReqPerSec) || !finitePositive(rep.PooledP99Ns) {
			bad("degenerate pooled measurement: %v req/s, p99 %v ns", rep.PooledReqPerSec, rep.PooledP99Ns)
		} else if finitePositive(baseline.PooledReqPerSec) && finitePositive(baseline.PooledP99Ns) {
			if floor := baseline.PooledReqPerSec * (1 - pooledSlack); rep.PooledReqPerSec < floor {
				bad("pooled throughput %.0f req/s below floor %.0f (baseline %.0f - %.0f%% slack)",
					rep.PooledReqPerSec, floor, baseline.PooledReqPerSec, 100*pooledSlack)
			}
			if ceil := baseline.PooledP99Ns * (1 + pooledSlack); rep.PooledP99Ns > ceil {
				bad("pooled p99 %.2f ms above ceiling %.2f ms (baseline %.2f ms + %.0f%% slack)",
					rep.PooledP99Ns/1e6, ceil/1e6, baseline.PooledP99Ns/1e6, 100*pooledSlack)
			}
		}
	}
	// Property 5: selective instrumentation keeps paying on the
	// taint-sparse workload. Baseline-relative like the block/interp
	// ratio (same-machine comparison cancels host speed), skipped only
	// when the baseline predates the selective measurement; a
	// degenerate measurement is always a failure. The analysis must
	// also actually skip sites — a selective build that keeps
	// everything silently degrades to full instrumentation and the
	// speedup gate would pass at 1.0x against a stale baseline.
	if selectiveSlack > 0 {
		switch {
		case !finitePositive(rep.SelectiveFullNsPerOp) || !finitePositive(rep.SelectiveNsPerOp):
			bad("degenerate selective measurement: full %v ns/op, selective %v ns/op",
				rep.SelectiveFullNsPerOp, rep.SelectiveNsPerOp)
		case !finitePositive(rep.SelectiveSpeedup):
			bad("degenerate ratio: selective_speedup = %v", rep.SelectiveSpeedup)
		case rep.SelectiveSitesSkip <= 0:
			bad("selective build skipped no sites (kept %d): reachability pruning is inert",
				rep.SelectiveSitesKept)
		case finitePositive(baseline.SelectiveSpeedup):
			floor := baseline.SelectiveSpeedup * (1 - selectiveSlack)
			if rep.SelectiveSpeedup < floor {
				bad("selective speedup %.3fx below floor %.3fx (baseline %.3fx - %.0f%% slack)",
					rep.SelectiveSpeedup, floor, baseline.SelectiveSpeedup, 100*selectiveSlack)
			}
		}
	}
	return fails
}
