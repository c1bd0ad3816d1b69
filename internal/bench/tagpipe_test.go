package bench

import (
	"testing"

	"shift/internal/workload"
)

// Tagpipe routes instrumented measurement runs through the
// sink-granular checker without changing their verdicts or architectural
// outcome: a benchmark must complete clean and produce the same guest
// output, retirement count and cycle count as the unchecked
// configuration (the checker runs on the host, off the guest clock).
func TestTagpipeWiring(t *testing.T) {
	b := workload.All()[0]
	scale := b.RefScale / 64
	if scale < 64 {
		scale = 64
	}
	cfg := ByteUnsafe
	inline, err := RunBenchmark(b, scale, &cfg)
	if err != nil {
		t.Fatal(err)
	}

	prev := Tagpipe
	Tagpipe = 1
	defer func() { Tagpipe = prev }()
	piped, err := RunBenchmark(b, scale, &cfg)
	if err != nil {
		t.Fatalf("sink-checker run: %v", err)
	}
	if piped.Stdout != inline.Stdout || piped.Retired != inline.Retired || piped.Cycles != inline.Cycles {
		t.Errorf("checked run diverged: stdout %q vs %q, retired %d vs %d, cycles %d vs %d",
			piped.Stdout, inline.Stdout, piped.Retired, inline.Retired, piped.Cycles, inline.Cycles)
	}
}
