package shift_test

import (
	"testing"

	"shift/internal/shift"
	"shift/internal/taint"
	"shift/internal/workload"
)

// The checkers read the tag bitmap from outside the guest, and those
// reads must be invisible to it: not only simulated cycles but also the
// guest's software-TLB statistics (exported as shift_tlb_hits and
// shift_tlb_misses) must be the same whether a run is unchecked, checked
// by the lockstep oracle, or checked by the sink-granular checker.
func TestCheckersLeaveTLBStatsAlone(t *testing.T) {
	slow := map[string]bool{"vpr": true, "twolf": true, "mcf": true}
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if testing.Short() && slow[b.Name] {
				t.Skip("fixed-iteration kernel; covered by the non-short run")
			}
			t.Parallel()
			sc := b.RefScale / 64
			if sc < 64 {
				sc = 64
			}
			for _, gran := range []taint.Granularity{taint.Byte, taint.Word} {
				conf := b.Config()
				conf.Granularity = gran
				opt := shift.Options{Instrument: true, Policy: conf}
				prog, err := shift.Build([]shift.Source{{Name: b.Name + ".mc", Text: b.Source}}, opt)
				if err != nil {
					t.Fatalf("%v: build: %v", gran, err)
				}
				var ref struct{ cycles, hits, misses uint64 }
				for i, mode := range []string{"unchecked", "oracle", "tagpipe"} {
					o := opt
					o.Oracle = mode == "oracle"
					if mode == "tagpipe" {
						o.Decoupled = 1
					}
					res, err := shift.Run(prog, b.World(sc), o)
					if err != nil {
						t.Fatalf("%v/%s: run: %v", gran, mode, err)
					}
					if res.Trap != nil || res.Alert != nil {
						t.Fatalf("%v/%s: not clean: trap=%v alert=%v", gran, mode, res.Trap, res.Alert)
					}
					h, ms := res.Machine.Mem.TLBStats()
					if i == 0 {
						ref.cycles, ref.hits, ref.misses = res.Cycles, h, ms
						continue
					}
					if res.Cycles != ref.cycles {
						t.Errorf("%v/%s: cycles %d, unchecked %d", gran, mode, res.Cycles, ref.cycles)
					}
					if h != ref.hits || ms != ref.misses {
						t.Errorf("%v/%s: TLB hits/misses %d/%d, unchecked %d/%d",
							gran, mode, h, ms, ref.hits, ref.misses)
					}
				}
			}
		})
	}
}
