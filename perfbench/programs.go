package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"shift/internal/isa"
	"shift/internal/loader"
	"shift/internal/machine"
	"shift/internal/shift"
	"shift/internal/workload"
)

// specScaleDiv fixes the Figure-7 input scale: each program's reference
// scale divided by this, at least 64 bytes (vpr, mcf, crafty and twolf
// read fixed-size inputs whatever the scale).
const specScaleDiv = 16

// program is one guest program of a workload with the world it runs
// against: a Figure-7 analogue with its disk input, or the shiftd guest
// with one request record.
type program struct {
	name  string
	src   shift.Source
	opt   shift.Options // instrumented run options, no checker
	world func() *shift.World
	// check validates the output of any run of the program; the
	// instrumented runs are also compared with the bare run.
	check func(*shift.Result) error

	bare, instr *isa.Program
}

// build compiles the program bare and instrumented.
func (p *program) build() error {
	var err error
	if p.bare, err = shift.Build([]shift.Source{p.src}, shift.Options{}); err != nil {
		return fmt.Errorf("%s: bare build: %w", p.name, err)
	}
	if p.instr, err = shift.Build([]shift.Source{p.src}, p.opt); err != nil {
		return fmt.Errorf("%s: instrumented build: %w", p.name, err)
	}
	return nil
}

// buildAll builds every program.
func buildAll(ps []*program) error {
	for _, p := range ps {
		if err := p.build(); err != nil {
			return err
		}
	}
	return nil
}

// buildShared builds ps[0] once and shares its builds with the rest of
// ps, which must have the same source and options (the shiftd guest
// under several request shapes).
func buildShared(ps []*program) error {
	if err := ps[0].build(); err != nil {
		return err
	}
	for _, p := range ps[1:] {
		p.bare, p.instr = ps[0].bare, ps[0].instr
	}
	return nil
}

// specPrograms returns the eight Figure-7 analogues at the fixed scale,
// byte granularity, under each benchmark's own policy.
func specPrograms() []*program {
	var ps []*program
	for _, b := range workload.All() {
		b := b
		scale := b.RefScale / specScaleDiv
		if scale < 64 {
			scale = 64
		}
		input := b.Input(scale)
		ps = append(ps, &program{
			name: b.Name,
			src:  shift.Source{Name: b.Name + ".mc", Text: b.Source},
			opt:  shift.Options{Instrument: true, Policy: b.Config()},
			world: func() *shift.World {
				w := shift.NewWorld()
				w.Files["input.dat"] = input
				return w
			},
			check: func(r *shift.Result) error {
				if r.ExitStatus != 0 || len(r.World.Stdout) == 0 {
					return fmt.Errorf("exit %d, %d bytes of stdout", r.ExitStatus, len(r.World.Stdout))
				}
				return nil
			},
		})
	}
	return ps
}

// httpdOptions are shiftd's run options: instrumented guest under the
// server policy, checked by one decoupled tag-pipeline worker.
func httpdOptions() shift.Options {
	return shift.Options{Instrument: true, Policy: workload.HTTPDConfig(), Decoupled: 1}
}

// httpdDocs mirrors shiftd's document root.
var httpdDocs = map[string][]byte{
	"/www/htdocs/index.html":    indexBody,
	"/www/htdocs/page4096.html": pageBody,
}

// httpdWorld is shiftd's per-request world: the shared document root and
// one request record as network input.
func httpdWorld(r request) *shift.World {
	w := shift.NewWorld()
	w.Files = httpdDocs
	rec := make([]byte, workload.HTTPDRequestSize)
	copy(rec, "GET "+r.guestName())
	w.NetIn = rec
	return w
}

// checkGuest validates one in-process shiftd guest run against r, with
// the classification shiftd applies to the guest's network output.
func checkGuest(r request, res *shift.Result) error {
	if r.kind == kTraversal {
		if res.Alert == nil || res.Alert.Violation == nil || res.Alert.Violation.Policy != "H2" {
			return fmt.Errorf("%s: no H2 alert", r.path)
		}
		return nil
	}
	if res.Alert != nil {
		return fmt.Errorf("%s: unexpected alert: %v", r.path, res.Alert)
	}
	out := res.World.NetOut
	switch r.kind {
	case kNotFound:
		if !bytes.HasPrefix(out, []byte("404")) {
			return fmt.Errorf("%s: output %q is not a 404", r.path, out)
		}
	case kIndex:
		if !bytes.Equal(out, indexBody) {
			return fmt.Errorf("%s: body differs from the document root", r.path)
		}
	case kPage:
		if !bytes.Equal(out, pageBody) {
			return fmt.Errorf("%s: body differs from the document root", r.path)
		}
	}
	return nil
}

// shapeRequest is the fixed request of each shape the program phase runs.
func shapeRequest(k kind) request {
	switch k {
	case kNotFound:
		return request{kNotFound, "/missing.html"}
	case kTraversal:
		return request{kTraversal, "/?file=../../etc/passwd"}
	case kPage:
		return request{kPage, "/page4096.html"}
	}
	return request{kIndex, "/index.html"}
}

// httpdPrograms returns the shiftd guest once per request shape.
func httpdPrograms(shapes []kind) []*program {
	opt := httpdOptions()
	opt.Decoupled = 0
	var ps []*program
	for _, k := range shapes {
		r := shapeRequest(k)
		ps = append(ps, &program{
			name:  "httpd" + r.path,
			src:   shift.Source{Name: "httpd.mc", Text: workload.HTTPDSource},
			opt:   opt,
			world: func() *shift.World { return httpdWorld(r) },
			check: func(res *shift.Result) error { return checkGuest(r, res) },
		})
	}
	return ps
}

// mode is how a program is run.
type mode int

const (
	bare      mode = iota // uninstrumented build
	unchecked             // instrumented, no checker
	checked               // instrumented, decoupled tag pipeline (shiftd's checker)
	hooked                // instrumented, no checker, a no-op StepHook attached
	numModes
)

var modeNames = [numModes]string{"bare", "unchecked", "checked", "hooked"}

// noopHook is a StepHook that does nothing, so a hooked run pays the
// machine's hook dispatch and nothing else.
type noopHook struct{}

func (noopHook) PreStep(*machine.Machine, *isa.Instruction)        {}
func (noopHook) PostStep(*machine.Machine, *isa.Instruction) error { return nil }

// runOut is one program run: the result and the host time of RunOn.
type runOut struct {
	res  *shift.Result
	wall time.Duration
}

// run loads p and runs it once in mode m, timing only shift.RunOn.
func (p *program) run(m mode) (runOut, error) {
	prog, opt := p.instr, p.opt
	switch m {
	case bare:
		prog, opt = p.bare, shift.Options{}
	case checked:
		opt.Decoupled = 1
	}
	img, err := loader.Load(prog)
	if err != nil {
		return runOut{}, err
	}
	w := p.world()
	w.HeapBase, w.StackTop = img.HeapBase, img.StackTop
	mach := img.NewMachine()
	if m == hooked {
		mach.Hook = noopHook{}
	}
	start := time.Now()
	res, err := shift.RunOn(mach, w, opt)
	wall := time.Since(start)
	if err != nil {
		return runOut{}, err
	}
	if res.Trap != nil {
		return runOut{}, fmt.Errorf("trap: %v", res.Trap)
	}
	if res.Pipe != nil {
		if d := res.Pipe.Divergence(); d != nil {
			return runOut{}, fmt.Errorf("checker divergence: %v", d)
		}
	}
	return runOut{res: res, wall: wall}, p.check(res)
}

// progStats accumulates one program's runs per mode.
type progStats struct {
	walls   [numModes][]float64 // seconds
	cycles  [numModes]uint64
	retired [numModes]uint64
	stdout  [numModes][]byte
	netout  [numModes][]byte
	seen    [numModes]bool
	records uint64 // tag-pipeline records of a checked run
	units   uint64 // tag-pipeline unit checks of a checked run
	// rounds holds, per round, the wall time of each mode run in it
	// (seconds; 0 for a mode the round did not run).
	rounds [][numModes]float64
}

// record folds one run into s and cross-checks it against the program's
// other modes: every instrumented run prints what the bare run printed,
// and every instrumented run retires the same instructions in the same
// simulated cycles, since a checker must not move simulated time.
func (s *progStats) record(m mode, o runOut) error {
	r := o.res
	s.walls[m] = append(s.walls[m], o.wall.Seconds())
	if s.seen[m] && (r.Cycles != s.cycles[m] || r.Retired != s.retired[m]) {
		return fmt.Errorf("%s run not deterministic: %d cycles/%d retired, earlier %d/%d",
			modeNames[m], r.Cycles, r.Retired, s.cycles[m], s.retired[m])
	}
	s.seen[m] = true
	s.cycles[m], s.retired[m] = r.Cycles, r.Retired
	s.stdout[m], s.netout[m] = r.World.Stdout, r.World.NetOut
	if m == checked {
		s.records = r.Pipe.Stats.Records.Load()
		s.units = r.Pipe.Stats.UnitChecks.Load()
	}
	for o := bare; o < numModes; o++ {
		if o == m || !s.seen[o] {
			continue
		}
		if (m == bare) != (o == bare) && (!bytes.Equal(s.stdout[m], s.stdout[o]) || !bytes.Equal(s.netout[m], s.netout[o])) {
			return fmt.Errorf("%s run output differs from the %s run", modeNames[m], modeNames[o])
		}
		if m != bare && o != bare && (s.cycles[o] != r.Cycles || s.retired[o] != r.Retired) {
			return fmt.Errorf("%s run: %d cycles/%d retired, %s run %d/%d",
				modeNames[m], r.Cycles, r.Retired, modeNames[o], s.cycles[o], s.retired[o])
		}
	}
	return nil
}

// mips is guest instructions per host microsecond for mode m, from the
// median run.
func (s *progStats) mips(m mode) float64 {
	return float64(s.retired[m]) / median(s.walls[m]) / 1e6
}

// slowdown is the median over rounds of the wall time in mode num over
// the wall time in mode den of the same round. The two runs of a round
// are milliseconds apart, so host speed, which drifts by a third over
// seconds to minutes on a shared host, cancels out of the ratio.
func (s *progStats) slowdown(num, den mode) float64 {
	var xs []float64
	for _, r := range s.rounds {
		if r[num] > 0 && r[den] > 0 {
			xs = append(xs, r[num]/r[den])
		}
	}
	return median(xs)
}

// minBatch is how much RunOn time each program gets per mode in one
// pass: a program that runs shorter runs more rounds until it has had
// this much per mode, so its medians rest on many runs while vpr, mcf
// and twolf still run one round per pass.
const minBatch = 100 * time.Millisecond

// progPhase is the outcome of runPrograms: one progStats per program.
type progPhase struct {
	stats []*progStats
}

// runPrograms runs every program in each of modes, pass after pass until
// budget has elapsed (at least minPasses passes). A pass takes the
// programs in an order drawn from the seed, and gives each program
// rounds until it has had minBatch per mode; a round runs the program
// once in every mode, in an order drawn from the seed. Failed runs are
// logged and counted in t, and end the program's pass.
func runPrograms(progs []*program, modes []mode, order func(n int) []int, budget time.Duration, minPasses int, t *tally) *progPhase {
	ph := &progPhase{stats: make([]*progStats, len(progs))}
	for i := range ph.stats {
		ph.stats[i] = new(progStats)
	}
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < budget; pass++ {
		for _, pi := range order(len(progs)) {
			s := ph.stats[pi]
			ok := true
			for spent := time.Duration(0); ok && spent < minBatch*time.Duration(len(modes)); {
				var round [numModes]float64
				for _, mi := range order(len(modes)) {
					m := modes[mi]
					o, err := progs[pi].run(m)
					if err == nil {
						err = s.record(m, o)
					}
					if err != nil {
						err = fmt.Errorf("%s %s: %w", progs[pi].name, modeNames[m], err)
					}
					if ok = t.check(err); !ok {
						break
					}
					round[m] = o.wall.Seconds()
					spent += o.wall
				}
				if ok {
					s.rounds = append(s.rounds, round)
				}
			}
		}
	}
	return ph
}

// geoSlowdown is the geomean over programs of their slowdown of mode num
// over mode den in host time.
func (ph *progPhase) geoSlowdown(num, den mode) float64 {
	xs := make([]float64, len(ph.stats))
	for i, s := range ph.stats {
		xs[i] = s.slowdown(num, den)
	}
	return geomean(xs)
}

// geoMIPS is the geomean over programs of their median MIPS in mode m.
func (ph *progPhase) geoMIPS(m mode) float64 {
	xs := make([]float64, len(ph.stats))
	for i, s := range ph.stats {
		xs[i] = s.mips(m)
	}
	return geomean(xs)
}

// simSlowdown is the geomean over programs of instrumented simulated
// cycles over bare simulated cycles.
func (ph *progPhase) simSlowdown() float64 {
	xs := make([]float64, len(ph.stats))
	for i, s := range ph.stats {
		xs[i] = float64(s.cycles[unchecked]) / float64(s.cycles[bare])
	}
	return geomean(xs)
}

// medianWalls returns each program's median wall time in mode m, seconds.
func (ph *progPhase) medianWalls(m mode) []float64 {
	xs := make([]float64, len(ph.stats))
	for i, s := range ph.stats {
		xs[i] = median(s.walls[m])
	}
	return xs
}

// tally counts operations attempted and failed; it is safe for
// concurrent use.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

// check counts one operation whose outcome is err and reports success.
// The first few failures are logged to standard error.
func (t *tally) check(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			logf("check failed: %v", err)
		}
	}
	return err == nil
}
