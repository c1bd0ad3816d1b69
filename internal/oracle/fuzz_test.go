package oracle

import (
	"math/rand"
	"testing"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/mem"
)

// FuzzMachineNaTRules throws random-but-valid instruction streams at a
// bare machine with the oracle attached in mechanical-checks mode: plain
// loads must clear NaT, and speculative loads must defer exactly when an
// independent recomputation says they should. Traps are normal for random
// code; a TrapOracle is a machine bug.
func FuzzMachineNaTRules(f *testing.F) {
	for s := int64(1); s <= 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		text := make([]isa.Instruction, 1+rng.Intn(96))
		for i := range text {
			text[i] = isa.RandomInstruction(rng)
		}
		p := &isa.Program{Text: text}
		if err := p.Validate(); err != nil {
			t.Skip() // generator and validator disagree on a corner; not our target
		}
		memory := mem.New()
		memory.MapRegion(1, 0)
		memory.MapRegion(2, 0)
		m := machine.New(p, memory)
		m.Feat = machine.Features{SetClrNaT: true, NaTAwareCmp: rng.Intn(2) == 0}
		o := New(Config{}, Boundary)
		m.Hook = o
		for i := 0; i < 4096 && !m.Halted; i++ {
			trap := m.Step()
			if trap == nil {
				continue
			}
			if trap.Kind == machine.TrapOracle {
				t.Fatalf("seed %d: NaT rule broken: %v", seed, trap.Err)
			}
			break // faults are expected business for random code
		}
	})
}
