package shift

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"shift/internal/machine"
	"shift/internal/taint"
)

// progGen generates random but well-defined minic programs that consume
// tainted input. Two variable pools keep the programs policy-clean: index
// expressions use only control variables (never derived from input), so
// the strict pointer policy cannot fire; value expressions may mix in
// tainted data freely. Division is excluded (no trap source), loops are
// bounded, and every output travels through write()/print_int, so the
// differential check below can compare byte-for-byte behaviour.
type progGen struct {
	rng  *rand.Rand
	sb   strings.Builder
	vals []string // value variables (may be tainted)
	idxs []string // control variables (always clean)
}

func (g *progGen) pick(pool []string) string { return pool[g.rng.Intn(len(pool))] }

// cleanExpr builds an expression over control variables and literals.
func (g *progGen) cleanExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return fmt.Sprint(g.rng.Intn(100))
		}
		return g.pick(g.idxs)
	}
	op := []string{"+", "-", "*", "&", "|", "^"}[g.rng.Intn(6)]
	return "(" + g.cleanExpr(depth-1) + " " + op + " " + g.cleanExpr(depth-1) + ")"
}

// valExpr builds an expression that may involve tainted values.
func (g *progGen) valExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprint(g.rng.Intn(1000))
		case 1:
			return g.pick(g.idxs)
		case 2:
			return g.pick(g.vals)
		default:
			return "data[" + g.cleanExpr(1) + " & 63]"
		}
	}
	switch g.rng.Intn(8) {
	case 0:
		return "(" + g.valExpr(depth-1) + " << " + fmt.Sprint(1+g.rng.Intn(3)) + ")"
	case 1:
		return "(" + g.valExpr(depth-1) + " >> " + fmt.Sprint(1+g.rng.Intn(3)) + ")"
	case 2:
		// A comparison used as a value exercises relaxed compares.
		rel := []string{"<", ">", "==", "!=", "<=", ">="}[g.rng.Intn(6)]
		return "(" + g.valExpr(depth-1) + " " + rel + " " + g.valExpr(depth-1) + ")"
	default:
		op := []string{"+", "-", "*", "&", "|", "^"}[g.rng.Intn(6)]
		return "(" + g.valExpr(depth-1) + " " + op + " " + g.valExpr(depth-1) + ")"
	}
}

func (g *progGen) stmt(depth int) {
	switch g.rng.Intn(6) {
	case 0: // value assignment
		fmt.Fprintf(&g.sb, "\t%s = %s;\n", g.pick(g.vals), g.valExpr(2))
	case 1: // array store at a clean index
		fmt.Fprintf(&g.sb, "\tdata[%s & 63] = %s;\n", g.cleanExpr(1), g.valExpr(2))
	case 2: // conditional on possibly-tainted data (relaxed compares)
		if depth > 0 {
			rel := []string{"<", ">", "==", "!="}[g.rng.Intn(4)]
			fmt.Fprintf(&g.sb, "\tif (%s %s %s) {\n", g.valExpr(1), rel, g.valExpr(1))
			g.stmt(depth - 1)
			fmt.Fprintf(&g.sb, "\t} else {\n")
			g.stmt(depth - 1)
			fmt.Fprintf(&g.sb, "\t}\n")
		} else {
			fmt.Fprintf(&g.sb, "\t%s += %s;\n", g.pick(g.vals), g.valExpr(1))
		}
	case 3: // bounded loop over a clean counter, reserved for this loop
		if depth > 0 && len(g.idxs) > 1 {
			c := g.idxs[len(g.idxs)-1]
			g.idxs = g.idxs[:len(g.idxs)-1]
			fmt.Fprintf(&g.sb, "\tfor (%s = 0; %s < %d; %s++) {\n", c, c, 2+g.rng.Intn(10), c)
			g.stmt(depth - 1)
			fmt.Fprintf(&g.sb, "\t}\n")
			g.idxs = append(g.idxs, c)
		} else {
			fmt.Fprintf(&g.sb, "\t%s ^= %s;\n", g.pick(g.vals), g.valExpr(1))
		}
	case 4: // compound ops
		op := []string{"+=", "-=", "^=", "|=", "&="}[g.rng.Intn(5)]
		fmt.Fprintf(&g.sb, "\t%s %s %s;\n", g.pick(g.vals), op, g.valExpr(2))
	default: // char-level traffic through the runtime
		fmt.Fprintf(&g.sb, "\tbuf[%s & 31] = %s;\n", g.cleanExpr(1), g.valExpr(1))
	}
}

// generate returns a complete program.
func generate(seed int64) string {
	g := &progGen{
		rng:  rand.New(rand.NewSource(seed)),
		vals: []string{"v0", "v1", "v2"},
		idxs: []string{"i", "j"},
	}
	g.sb.WriteString("int data[64];\nchar buf[32];\n")
	g.sb.WriteString("void main() {\n")
	g.sb.WriteString("\tchar in[64];\n\tint n = recv(in, 64);\n")
	g.sb.WriteString("\tint i; int j; int v0 = 1; int v1 = 2; int v2 = 3;\n")
	g.sb.WriteString("\tfor (i = 0; i < 64; i++) data[i] = in[i & 63];\n")
	for s := 0; s < 8+g.rng.Intn(8); s++ {
		g.stmt(2)
	}
	// Fold all state into an output the host can diff; the values are
	// tainted, which is fine for write() but not for exit().
	g.sb.WriteString("\tint sum = v0 ^ v1 ^ v2;\n")
	g.sb.WriteString("\tfor (i = 0; i < 64; i++) sum += data[i] * (i + 1);\n")
	g.sb.WriteString("\tfor (i = 0; i < 32; i++) sum ^= buf[i] << (i & 7);\n")
	g.sb.WriteString("\tprint_int(sum); putc('\\n');\n")
	g.sb.WriteString("\texit(0);\n}\n")
	return g.sb.String()
}

// FuzzOracleLockstep is the native-fuzzing face of the differential
// harness: the fuzzer explores (program seed, tainted input, granularity)
// while the lockstep oracle cross-checks every retired instruction. Any
// tag/NaT divergence — or any semantic trap — is a finding.
func FuzzOracleLockstep(f *testing.F) {
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
		res, err := BuildAndRun([]Source{{Name: "fuzz.mc", Text: src}}, world,
			Options{Instrument: true, Granularity: g, Oracle: true})
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
	})
}

// generateThreaded builds a multi-threaded variant of generate's programs:
// the same statement pool, but split across worker threads that all read
// and write the shared data/buf arrays with yields sprinkled between
// statements, so tag-byte read-modify-writes from different threads
// interleave. Outputs are NOT diffed against a baseline — instrumentation
// changes where slices end and therefore how threads interleave — the
// property under fuzz is that fully checked multithreaded tracking never
// traps, never alerts, and never diverges from the lockstep oracle.
func generateThreaded(seed int64, workers int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("int data[64];\nchar buf[32];\n")
	for w := 0; w < workers; w++ {
		g := &progGen{
			rng:  rand.New(rand.NewSource(seed + int64(w)*7919)),
			vals: []string{"v0", "v1", "v2"},
			idxs: []string{"i", "j"},
		}
		fmt.Fprintf(&g.sb, "int worker%d(int id) {\n", w)
		g.sb.WriteString("\tint i; int j; int v0 = id; int v1 = 2; int v2 = 3;\n")
		for s := 0; s < 4+g.rng.Intn(6); s++ {
			g.stmt(2)
			g.sb.WriteString("\tyield();\n")
		}
		g.sb.WriteString("\treturn 0;\n}\n")
		sb.WriteString(g.sb.String())
	}
	sb.WriteString("void main() {\n")
	sb.WriteString("\tchar in[64];\n\tint n = recv(in, 64);\n")
	sb.WriteString("\tint i;\n")
	sb.WriteString("\tfor (i = 0; i < 64; i++) data[i] = in[i & 63];\n")
	sb.WriteString("\tint tids[4];\n")
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&sb, "\ttids[%d] = spawn(\"worker%d\", %d);\n", w, w, rng.Intn(8))
	}
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&sb, "\tif (tids[%d] < 0) exit(2);\n\tjoin(tids[%d]);\n", w, w)
	}
	sb.WriteString("\tint sum = 0;\n")
	sb.WriteString("\tfor (i = 0; i < 64; i++) sum += data[i] * (i + 1);\n")
	sb.WriteString("\tfor (i = 0; i < 32; i++) sum ^= buf[i] << (i & 7);\n")
	sb.WriteString("\tprint_int(sum); putc('\\n');\n")
	sb.WriteString("\texit(0);\n}\n")
	return sb.String()
}

// FuzzThreadedTaint explores (program shape, tainted input, granularity,
// worker count, quantum) with the lockstep oracle's full register and
// bitmap cross-checks live across every spawn. Before tag-coherent
// scheduling the oracle had to stand down at the first spawn; now any
// interleaving the fuzzer finds that tears a tag update or desynchronizes
// a NaT bit is a hard finding.
func FuzzThreadedTaint(f *testing.F) {
	f.Add(int64(1), []byte("tainted input bytes"), false, uint8(2), uint8(0))
	f.Add(int64(7), []byte{0xff, 0x00, 0x80, 0x7f}, true, uint8(3), uint8(17))
	f.Add(int64(42), []byte("0123456789abcdef"), false, uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, input []byte, word bool, workers, quantum uint8) {
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
		src := generateThreaded(seed, 1+int(workers)%3)
		world := NewWorld()
		world.NetIn = input
		res, err := BuildAndRun([]Source{{Name: "fuzz.mc", Text: src}}, world,
			Options{Instrument: true, Granularity: g, Oracle: true,
				Quantum: uint64(quantum)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap != nil {
			t.Fatalf("seed %d gran=%v workers=%d q=%d: %v\n%s",
				seed, g, 1+int(workers)%3, quantum, res.Trap, src)
		}
		if res.Alert != nil {
			t.Fatalf("seed %d gran=%v workers=%d q=%d: false positive: %v\n%s",
				seed, g, 1+int(workers)%3, quantum, res.Alert, src)
		}
		if res.Oracle.Stats.UnitChecks.Load() == 0 {
			t.Fatalf("seed %d gran=%v: oracle idle", seed, g)
		}
	})
}

// TestInstrumentationPreservesSemantics is the central differential
// property: for randomly generated programs over tainted input, the
// instrumented runs (byte, word, enhanced, per-function NaT) must produce
// exactly the baseline's output and exit status, with no alerts.
func TestInstrumentationPreservesSemantics(t *testing.T) {
	count := 25
	if testing.Short() {
		count = 6
	}
	modes := []struct {
		name string
		opt  Options
	}{
		{"byte", Options{Instrument: true, Granularity: taint.Byte}},
		{"word", Options{Instrument: true, Granularity: taint.Word}},
		{"byte+enh", Options{Instrument: true, Granularity: taint.Byte,
			Features: machine.Features{SetClrNaT: true, NaTAwareCmp: true}}},
		{"byte+perfn", Options{Instrument: true, Granularity: taint.Byte, NaTPerFunction: true}},
		{"byte+opt", Options{Instrument: true, Granularity: taint.Byte, Optimize: true}},
		{"word+opt", Options{Instrument: true, Granularity: taint.Word, Optimize: true}},
		{"byte+ser", Options{Instrument: true, Granularity: taint.Byte, SerializedTags: true}},
		{"byte+guards", Options{Instrument: true, Granularity: taint.Byte, UserGuards: true}},
	}
	for seed := int64(1); seed <= int64(count); seed++ {
		src := generate(seed)
		input := make([]byte, 64)
		r := rand.New(rand.NewSource(seed * 7919))
		r.Read(input)

		world := NewWorld()
		world.NetIn = input
		base, err := BuildAndRun([]Source{{Name: "fuzz.mc", Text: src}}, world, Options{Oracle: true})
		if err != nil {
			t.Fatalf("seed %d: baseline: %v\n%s", seed, err, src)
		}
		if base.Trap != nil {
			t.Fatalf("seed %d: baseline trap: %v\n%s", seed, base.Trap, src)
		}

		for _, m := range modes {
			world := NewWorld()
			world.NetIn = input
			opt := m.opt
			opt.Oracle = true // lockstep reference check rides along
			res, err := BuildAndRun([]Source{{Name: "fuzz.mc", Text: src}}, world, opt)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, m.name, err)
			}
			if res.Trap != nil || res.Alert != nil {
				t.Fatalf("seed %d %s: trap=%v alert=%v\n%s", seed, m.name, res.Trap, res.Alert, src)
			}
			if string(res.World.Stdout) != string(base.World.Stdout) {
				t.Fatalf("seed %d %s: output %q != baseline %q\n%s",
					seed, m.name, res.World.Stdout, base.World.Stdout, src)
			}
			if res.Cycles <= base.Cycles {
				t.Errorf("seed %d %s: instrumentation cost nothing", seed, m.name)
			}
			// The oracle must really have been checking, not idling.
			st := &res.Oracle.Stats
			if st.Steps.Load() == 0 || st.RegChecks.Load() == 0 || st.UnitChecks.Load() == 0 {
				t.Fatalf("seed %d %s: oracle idle: %d steps, %d register checks, %d unit checks",
					seed, m.name, st.Steps.Load(), st.RegChecks.Load(), st.UnitChecks.Load())
			}
		}
	}
}
