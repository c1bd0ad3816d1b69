// Command perfbench is the repository's benchmark. It runs one named
// workload with a seed, checks every output, and prints one JSON line of
// metrics: the end-to-end metrics by default, the per-layer metrics of a
// traced run with -trace 1. See README.md for the workloads and metrics.
//
// Usage (from the repository root, after building shiftd):
//
//	perfbench -workload serve-small|serve-page|spec-checked -seed N -seconds S -trace 0|1 [-shiftd BIN] [-out DIR]
//
// perfbench/run.sh builds shiftd and perfbench and runs it this way.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"shift/internal/shift"
)

const (
	// setupRounds is how many times set-up is repeated per run; setup_s
	// is the median.
	setupRounds = 9
	// minTailSamples is the fewest requests an open-loop level whose p99
	// is reported may have: the percentile rule wants 10 beyond it.
	minTailSamples = 1100
	// minLevelSamples is the fewest requests of a rate-ladder level.
	minLevelSamples = 300
	// Shares of -seconds. An untraced serve run spends unloadedShare on
	// one-at-a-time requests and serveProgShare on the in-process program
	// phase. A traced serve run spends nominalShare on the nominal-rate
	// level, levelShare on each ladder level and at most ladderShare on
	// the ladder; every traced run spends layerShare on pool-path passes
	// and progShare on the program phase.
	unloadedShare  = 0.6
	serveProgShare = 0.3
	nominalShare   = 0.2
	levelShare     = 0.08
	ladderShare    = 0.3
	layerShare     = 0.3
	progShare      = 0.15
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds int
	conns   int // at most one connection or worker per host CPU
	shiftd  string
	out     string
}

// logf prints human-readable progress to standard error; standard output
// carries only the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "serve-small, serve-page or spec-checked")
	seed := flag.Int64("seed", 1, "seed of the request mix, arrival schedule and run order")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	bin := flag.String("shiftd", ".bench_build/shiftd", "shiftd binary to serve with")
	out := flag.String("out", ".bench_build", "directory for the Chrome trace of a traced run")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, conns: runtime.NumCPU(), shiftd: *bin, out: *out}
	if err := run(cfg, *workload, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, workload string, traced int) error {
	if cfg.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if traced != 0 && traced != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if err := validSpecs(endToEnd, perLayer); err != nil {
		return err
	}
	specs := endToEnd
	if traced == 1 {
		specs = perLayer
	}
	t := new(tally)
	var values map[string]float64
	var err error
	switch wl, ok := serveWorkloads[workload]; {
	case ok && traced == 1:
		values, err = serveLayers(cfg, workload, wl, t)
	case ok:
		values, err = serveE2E(cfg, wl, t)
	case workload == "spec-checked" && traced == 1:
		values, err = specLayers(cfg, t)
	case workload == "spec-checked":
		values, err = specE2E(cfg, t)
	default:
		names := []string{"spec-checked"}
		for n := range serveWorkloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown -workload %q (want one of %v)", workload, names)
	}
	if err != nil {
		return err
	}
	logf("operations: %d attempted, %d failed (failed_frac %g)", t.attempted, t.failed, float64(t.failed)/float64(max(t.attempted, 1)))
	line, err := resultJSON(specs, values, t)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// share returns a fraction of the run's measurement time.
func (c config) share(f float64) time.Duration {
	return time.Duration(f * float64(c.seconds) * float64(time.Second))
}

// startMedian starts shiftd setupRounds times, keeps the last server
// running and returns it with the median set-up time in seconds.
func startMedian(cfg config) (*shiftd, float64, error) {
	var setups []float64
	var s *shiftd
	for i := 0; i < setupRounds; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var err error
		if s, d, err = startShiftd(cfg.shiftd); err != nil {
			return nil, 0, err
		}
		setups = append(setups, d.Seconds())
	}
	return s, median(setups), nil
}

// serveE2E drives shiftd over loopback HTTP: set-up time, the latency of
// requests sent one at a time over one connection, and the server's peak
// RSS; then the guest program's MIPS and simulated slowdown through the
// shift façade.
func serveE2E(cfg config, wl serveWorkload, t *tally) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	srv, setup, err := startMedian(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c := newClient(srv.base, 1)
	defer c.close()

	var lat []float64
	budget, start := cfg.share(unloadedShare), time.Now()
	for len(lat) < minTailSamples || time.Since(start) < budget {
		r := wl.mix(rng)
		t0 := time.Now()
		if t.check(c.do(r)) {
			lat = append(lat, ms(time.Since(t0)))
		}
	}
	sl := sortedCopy(lat)
	p50, _ := percentile(sl, 50)
	tail, beyond := percentile(sl, 99)
	logf("unloaded: %d requests, p50 %.3f ms, p99 %.3f ms (%d beyond)", len(sl), p50, tail, beyond)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()

	progs := httpdPrograms(wl.shapes)
	if err := buildShared(progs); err != nil {
		return nil, err
	}
	ph := runPrograms(progs, []mode{bare, unchecked, checked}, rng.Perm, cfg.share(serveProgShare), 3, t)
	return map[string]float64{
		"setup_s":          setup,
		"p50_ms":           p50,
		"peak_rss_mb":      rss,
		"host_slowdown":    ph.geoSlowdown(checked, bare),
		"checker_slowdown": ph.geoSlowdown(checked, unchecked),
		"sim_slowdown":     ph.simSlowdown(),
	}, nil
}

// openLoopLoad is the open-loop part of a serve workload's traced run:
// p50 and p99 from due time at the nominal rate, the generator's
// lateness, and the highest rate of the ladder that meets the latency
// limit.
func openLoopLoad(cfg config, c *client, wl serveWorkload, rng *rand.Rand, t *tally) map[string]float64 {
	n := max(minTailSamples, int(wl.nominal*cfg.share(nominalShare).Seconds()))
	nom := summarize(serveLevel(c, wl, rng, wl.nominal, n, cfg.conns, t), wl.nominal, wl.limitMs)
	logLevel("nominal", nom, wl.limitMs)
	return map[string]float64{
		"load.p50_ms":     nom.p50,
		"load.p99_ms":     nom.p99,
		"gen.late_p99_ms": nom.lateP99,
		"load.slo_rps":    ladder(cfg, c, wl, rng, nom, t),
	}
}

// logLevel prints one open-loop level's summary, with the percentile
// rule's sample accounting.
func logLevel(what string, l levelResult, limitMs float64) {
	beyond := l.n - rank(l.n, 99)
	tail, _ := tailPercentile(l.n)
	logf("%s %.0f/s: n=%d (p99 has %d beyond; highest reportable p%g) failed=%d p50=%.3fms p99=%.3fms late_p99=%.3fms growing=%v behind=%v pass(%gms)=%v",
		what, l.rate, l.n, beyond, tail, l.failed, l.p50, l.p99, l.lateP99, l.growing, l.behind, limitMs, l.pass(limitMs))
}

// ladder finds the highest rate of the workload's ladder that meets the
// latency limit. From the nominal level it climbs while levels pass, or
// descends until one passes when the nominal level did not; the climb
// stops when its share of the run time is spent.
func ladder(cfg config, c *client, wl serveWorkload, rng *rand.Rand, nom levelResult, t *tally) float64 {
	at := sort.SearchFloat64s(wl.ladder, wl.nominal)
	level := func(i int) levelResult {
		rate := wl.ladder[i]
		n := max(minLevelSamples, int(rate*cfg.share(levelShare).Seconds()))
		l := summarize(serveLevel(c, wl, rng, rate, n, cfg.conns, t), rate, wl.limitMs)
		logLevel("ladder", l, wl.limitMs)
		return l
	}
	if !nom.pass(wl.limitMs) {
		for i := at - 1; i >= 0; i-- {
			if level(i).pass(wl.limitMs) {
				return wl.ladder[i]
			}
		}
		return 0
	}
	start := time.Now()
	slo := wl.nominal
	for i := at + 1; i < len(wl.ladder); i++ {
		if time.Since(start) > cfg.share(ladderShare) {
			logf("ladder: time share spent, slo_rps capped at %.0f", slo)
			break
		}
		if !level(i).pass(wl.limitMs) {
			break
		}
		slo = wl.ladder[i]
	}
	return slo
}

// buildMedian builds every program setupRounds times and returns the
// median time of one round in seconds.
func buildMedian(progs []*program) (float64, error) {
	var rounds []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		if err := buildAll(progs); err != nil {
			return 0, err
		}
		rounds = append(rounds, time.Since(start).Seconds())
	}
	return median(rounds), nil
}

// specE2E runs the Figure-7 analogues bare, instrumented without a
// checker and checked, pass after pass in a seeded order, through the
// shift façade.
func specE2E(cfg config, t *tally) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	progs := specPrograms()
	setup, err := buildMedian(progs)
	if err != nil {
		return nil, err
	}
	ph := runPrograms(progs, []mode{bare, unchecked, checked}, rng.Perm, cfg.share(1), 2, t)
	walls := ph.medianWalls(checked)
	for i, p := range progs {
		s := ph.stats[i]
		logf("%-8s checked %8.2fms x%d  %6.2f MIPS checked, %6.2f unchecked, %6.2f bare; host slowdown %.3f (checker %.3f), sim %.4f",
			p.name, walls[i]*1e3, len(s.walls[checked]), s.mips(checked), s.mips(unchecked), s.mips(bare),
			s.slowdown(checked, bare), s.slowdown(checked, unchecked), float64(s.cycles[unchecked])/float64(s.cycles[bare]))
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":          setup,
		"p50_ms":           median(walls) * 1e3,
		"peak_rss_mb":      rss,
		"host_slowdown":    ph.geoSlowdown(checked, bare),
		"checker_slowdown": ph.geoSlowdown(checked, unchecked),
		"sim_slowdown":     ph.simSlowdown(),
	}, nil
}

// serveLayers is the traced run of a serve workload: the workload's
// request mix through an in-process pool built like shiftd's, next to a
// running shiftd for the HTTP transport and the generator.
func serveLayers(cfg config, name string, wl serveWorkload, t *tally) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	srv, _, err := startShiftd(cfg.shiftd)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c := newClient(srv.base, cfg.conns)
	defer c.close()
	load := openLoopLoad(cfg, c, wl, rng, t)
	// One pool of the shiftd guest serves every request, so every
	// operation runs on lane 0; the program-level measurements run the
	// guest once per benign request shape.
	progs := httpdPrograms(wl.shapes)
	perPass := max(50, int(wl.nominal/10))
	// The pool path draws its requests from a generator of its own, so
	// they do not depend on how far the ladder climbed.
	mix := rand.New(rand.NewSource(cfg.seed))
	lr := &layerRun{
		cfg: cfg, rng: rng, t: t, pool: 4, flight: true,
		build: func() error { return buildShared(progs) },
		lanes: progs[:1], progs: progs,
		opt: func(*program) shift.Options { return httpdOptions() },
		srv: srv,
		ops: func() ([]layerOp, []request) {
			ops := make([]layerOp, perPass)
			reqs := make([]request, perPass)
			for i := range ops {
				r := wl.mix(mix)
				reqs[i] = r
				ops[i] = layerOp{
					world: func() *shift.World { return httpdWorld(r) },
					check: func(res *shift.Result, bundle string) error {
						if err := checkGuest(r, res); err != nil {
							return err
						}
						if r.kind == kTraversal && !strings.Contains(bundle, "H2") {
							return fmt.Errorf("%s: forensic bundle does not name H2", r.path)
						}
						return nil
					},
				}
			}
			return ops, reqs
		},
	}
	v, err := lr.runLayers(name)
	if err != nil {
		return nil, err
	}
	for k, x := range load {
		v[k] = x
	}
	return v, nil
}

// specLayers is the traced run of spec-checked: each Figure-7 analogue
// checked on a pooled guest of its own, plus the program-level engine and
// checker measurements.
func specLayers(cfg config, t *tally) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	progs := specPrograms()
	if err := buildAll(progs); err != nil {
		return nil, err
	}
	// Reference output of each program, from its bare run.
	want := make([][]byte, len(progs))
	for i, p := range progs {
		o, err := p.run(bare)
		if !t.check(err) {
			return nil, fmt.Errorf("%s bare: %w", p.name, err)
		}
		want[i] = o.res.World.Stdout
	}
	lr := &layerRun{
		cfg: cfg, rng: rng, t: t, pool: 1,
		build: func() error { return buildAll(progs) },
		lanes: progs, progs: progs,
		opt: func(p *program) shift.Options {
			opt := p.opt
			opt.Decoupled = 1
			return opt
		},
		ops: func() ([]layerOp, []request) {
			var ops []layerOp
			for _, i := range rng.Perm(len(progs)) {
				p, i := progs[i], i
				ops = append(ops, layerOp{
					lane:  i,
					world: p.world,
					check: func(res *shift.Result, _ string) error {
						if err := p.check(res); err != nil {
							return fmt.Errorf("%s: %w", p.name, err)
						}
						if !bytes.Equal(res.World.Stdout, want[i]) {
							return fmt.Errorf("%s: pooled checked output differs from the bare run", p.name)
						}
						return nil
					},
				})
			}
			return ops, nil
		},
	}
	v, err := lr.runLayers("spec-checked")
	if err != nil {
		return nil, err
	}
	// No load generator drives spec-checked.
	for _, k := range []string{"load.p50_ms", "load.p99_ms", "load.slo_rps", "gen.late_p99_ms"} {
		v[k] = 0
	}
	return v, nil
}
