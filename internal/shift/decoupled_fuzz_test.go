package shift

import (
	"testing"

	"shift/internal/taint"
)

// FuzzDecoupledLockstep explores (program seed, tainted input,
// granularity) with BOTH checkers live in one run: the lockstep oracle
// cross-checks every retired instruction boundary while the
// sink-granular checker applies the same stream to its own shadow and
// re-checks at sinks. Any trap, alert, or divergence from either checker
// is a finding.
func FuzzDecoupledLockstep(f *testing.F) {
	f.Add(int64(1), []byte("tainted input bytes"), false)
	f.Add(int64(7), []byte{0xff, 0x00, 0x80, 0x7f}, true)
	f.Add(int64(42), []byte("0123456789abcdef0123456789abcdef"), false)
	f.Fuzz(func(t *testing.T, seed int64, input []byte, word bool) {
		if len(input) == 0 {
			input = []byte{1}
		}
		if len(input) > 64 {
			input = input[:64]
		}
		g := taint.Byte
		if word {
			g = taint.Word
		}
		src := generate(seed)
		world := NewWorld()
		world.NetIn = input
		res, err := BuildAndRun([]Source{{Name: "fuzz.mc", Text: src}}, world, Options{
			Instrument:  true,
			Granularity: g,
			Oracle:      true,
			Decoupled:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap != nil {
			t.Fatalf("seed %d gran=%v: %v\n%s", seed, g, res.Trap, src)
		}
		if res.Alert != nil {
			t.Fatalf("seed %d gran=%v: false positive: %v\n%s", seed, g, res.Alert, src)
		}
		if res.Oracle.Stats.UnitChecks.Load() == 0 {
			t.Fatalf("seed %d gran=%v: oracle idle", seed, g)
		}
		if res.Pipe.Stats.Records.Load() == 0 {
			t.Fatalf("seed %d gran=%v: sink checker idle", seed, g)
		}
		if res.Pipe.Divergence() != nil {
			t.Fatalf("seed %d gran=%v: sink checker divergence: %v\n%s", seed, g, res.Pipe.Divergence(), src)
		}
	})
}
