package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"shift/internal/loader"
	"shift/internal/pool"
	"shift/internal/shift"
	"shift/internal/trace"
)

// lane is one warm pool over one program with the options its requests
// run under.
type lane struct {
	p                  *pool.Pool
	opt                shift.Options
	heapBase, stackTop uint64
	flight             bool // attach a per-request flight recorder, as shiftd does
}

// newLane fills a pool of size guests over prog and records the loader
// image's heap and stack bases, which a world run on a pooled guest needs.
func newLane(log *spanLog, prog *program, size int, opt shift.Options, flight bool) (*lane, error) {
	sp := log.begin("loader.load", -1, -1)
	img, err := loader.Load(prog.instr)
	log.end(sp)
	if err != nil {
		return nil, err
	}
	sp = log.begin("pool.new", -1, -1)
	p, err := pool.New(prog.instr, size, opt)
	log.end(sp)
	if err != nil {
		return nil, err
	}
	return &lane{p: p, opt: opt, heapBase: img.HeapBase, stackTop: img.StackTop, flight: flight}, nil
}

// layerOp is one operation of the traced run: a world to serve on a lane
// and the check its result must pass.
type layerOp struct {
	lane  int
	world func() *shift.World
	check func(res *shift.Result, bundle string) error
}

// traced serves o on ln through the pool's public calls, one span per
// call: Acquire, RunOn on the guest's machine and tag space, the
// forensic render when the run raised an alert, and Release.
func (ln *lane) traced(o layerOp, log *spanLog, req int) (*shift.Result, string, error) {
	root := log.begin("pool.run", -1, req)
	sp := log.begin("pool.acquire", root, req)
	g := ln.p.Acquire()
	log.end(sp)

	sp = log.begin("shift.run", root, req)
	w := o.world()
	w.HeapBase, w.StackTop = ln.heapBase, ln.stackTop
	w.Tags = g.Tags()
	opt := ln.opt
	if ln.flight {
		opt.Trace = trace.New(512)
	}
	res, err := shift.RunOn(g.Machine(), w, opt)
	log.end(sp)

	var bundle string
	if err == nil && res.Alert != nil {
		sp = log.begin("forensics.render", root, req)
		bundle = res.Report().String()
		log.end(sp)
	}
	sp = log.begin("pool.release", root, req)
	ln.p.Release(g)
	log.end(sp)
	log.end(root)
	return res, bundle, err
}

// untraced serves o the way shiftd does, through Pool.Run, and returns
// its host time.
func (ln *lane) untraced(o layerOp) (*shift.Result, string, time.Duration, error) {
	start := time.Now()
	var res *shift.Result
	var err error
	if ln.flight {
		res, err = ln.p.RunTraced(o.world(), trace.New(512))
	} else {
		res, err = ln.p.Run(o.world())
	}
	var bundle string
	if err == nil && res.Alert != nil {
		bundle = res.Report().String()
	}
	return res, bundle, time.Since(start), err
}

// layerRun is the state of one traced run.
type layerRun struct {
	cfg   config
	rng   *rand.Rand
	t     *tally
	build func() error // builds every program, bare and instrumented
	lanes []*program   // the programs a pool is filled with, one pool each
	progs []*program   // the programs of the program-level measurements
	// ops draws one pass of operations from rng, with the same requests
	// as HTTP requests on serve workloads.
	ops    func() ([]layerOp, []request)
	pool   int // guests per pool
	opt    func(p *program) shift.Options
	flight bool

	srv *shiftd // the running server of a serve workload, for the HTTP transport
}

// runLayers performs the traced run and returns every per-layer metric.
func (lr *layerRun) runLayers(name string) (map[string]float64, error) {
	log, nochkLog := newSpanLog(), newSpanLog()
	v := map[string]float64{}

	// Builds, timed per round over every program bare and instrumented.
	var builds []float64
	for round := 0; round < setupRounds; round++ {
		start := time.Now()
		sp := log.begin("shift.build", -1, -1)
		err := lr.build()
		log.end(sp)
		if err != nil {
			return nil, err
		}
		builds = append(builds, ms(time.Since(start)))
	}
	v["shift.build_ms"] = median(builds)

	var c *client
	if lr.srv != nil {
		c = newClient(lr.srv.base, 1)
		defer c.close()
	}

	lanes := make([]*lane, len(lr.lanes))
	nochk := make([]*lane, len(lr.lanes))
	for i, p := range lr.lanes {
		var err error
		opt := lr.opt(p)
		if lanes[i], err = newLane(log, p, lr.pool, opt, lr.flight); err != nil {
			return nil, err
		}
		opt.Decoupled = 0
		if nochk[i], err = newLane(nochkLog, p, lr.pool, opt, lr.flight); err != nil {
			return nil, err
		}
	}

	// Passes over the pool path: traced, untraced and checker-less runs of
	// the same operations, and the same requests over loopback HTTP.
	// Counts come from the first countPasses passes only, which every run
	// makes, so for one seed they cover the same requests and repeat.
	const countPasses = 2
	var (
		req, counted, untracedN int
		untracedTotal           time.Duration
		records, drains, sweeps uint64
		units, stalls, retired  uint64
		restored, cleared       uint64
		allocBytes, gcs         uint64
		httpLat                 []float64
	)
	budget, start := lr.cfg.share(layerShare), time.Now()
	for pass := 0; pass < countPasses || time.Since(start) < budget; pass++ {
		ops, reqs := lr.ops()
		for _, o := range ops {
			ln := lanes[o.lane]
			before := ln.p.Stats()
			res, bundle, err := ln.traced(o, log, req)
			after := ln.p.Stats()
			req++
			if !lr.t.check(checkLayerRun(o, res, bundle, err)) || pass >= countPasses {
				continue
			}
			counted++
			restored += after.RestoredPages - before.RestoredPages
			cleared += after.ClearedPages - before.ClearedPages
			retired += res.Retired
			st := &res.Pipe.Stats
			records += st.Records.Load()
			drains += st.Drains.Load()
			sweeps += st.Sweeps.Load()
			units += st.UnitChecks.Load()
			stalls += st.Stalls.Load()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for _, o := range ops {
			res, bundle, d, err := lanes[o.lane].untraced(o)
			lr.t.check(checkLayerRun(o, res, bundle, err))
			untracedTotal += d
			untracedN++
		}
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		for i, o := range ops {
			res, bundle, err := nochk[o.lane].traced(o, nochkLog, i)
			lr.t.check(checkLayerRun(o, res, bundle, err))
		}
		if c != nil {
			for _, r := range reqs {
				t0 := time.Now()
				lr.t.check(c.do(r))
				httpLat = append(httpLat, float64(time.Since(t0))/float64(time.Microsecond))
			}
		}
	}

	lt := log.aggregate()
	nq := float64(lt.count["pool.run"])
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	poolRun := us(lt.total["pool.run"]) / nq
	v["pool.run_us"] = poolRun
	v["pool.acquire_us"] = us(lt.self["pool.acquire"]) / nq
	v["pool.release_us"] = us(lt.self["pool.release"]) / nq
	v["shift.run_us"] = us(lt.self["shift.run"]) / nq
	v["forensics.render_us"] = 0
	if n := lt.count["forensics.render"]; n > 0 {
		v["forensics.render_us"] = us(lt.self["forensics.render"]) / float64(n)
	}
	v["residual_frac"] = float64(lt.self["pool.run"]) / float64(lt.total["pool.run"])
	v["trace.overhead_frac"] = poolRun/(us(untracedTotal)/float64(untracedN)) - 1
	nl := nochkLog.aggregate()
	v["tagpipe.overhead_us"] = v["shift.run_us"] - us(nl.self["shift.run"])/float64(nl.count["shift.run"])
	v["pool.restored_pages_per_req"] = float64(restored) / float64(counted)
	v["pool.cleared_tag_pages_per_req"] = float64(cleared) / float64(counted)
	v["machine.retired_per_req"] = float64(retired) / float64(counted)
	v["tagpipe.records_per_req"] = float64(records) / float64(counted)
	v["tagpipe.drains_per_req"] = float64(drains) / float64(counted)
	v["tagpipe.sweeps_per_req"] = float64(sweeps) / float64(counted)
	v["tagpipe.unit_checks_per_req"] = float64(units) / float64(counted)
	v["tagpipe.stalls_per_req"] = float64(stalls) / float64(counted)
	v["go.alloc_kb_per_req"] = float64(allocBytes) / 1024 / float64(untracedN)
	v["go.gc_per_1k_req"] = float64(gcs) * 1000 / float64(untracedN)
	v["http.transport_us"] = 0
	if len(httpLat) > 0 {
		v["http.transport_us"] = mean(httpLat) - poolRun
	}
	logf("pool path: %d traced, %d untraced requests; residual %.4f of pool.run", req, untracedN, v["residual_frac"])

	// Program-level layers: the machine's bare and hooked engines and the
	// checker's cost on top of a hooked run.
	ph := runPrograms(lr.progs, []mode{bare, unchecked, checked, hooked}, lr.rng.Perm, lr.cfg.share(progShare), 2, lr.t)
	v["machine.bare_mips"] = ph.geoMIPS(bare)
	v["machine.hooked_mips"] = ph.geoMIPS(hooked)
	chk, hk := ph.medianWalls(checked), ph.medianWalls(hooked)
	var over []float64
	for i := range chk {
		over = append(over, (chk[i]-hk[i])*1e3)
	}
	v["tagpipe.overhead_ms"] = mean(over)
	var cycles, ret, recs, uc uint64
	for _, s := range ph.stats {
		cycles += s.cycles[unchecked]
		ret += s.retired[unchecked]
		recs += s.records
		uc += s.units
	}
	v["sim.cycles"] = float64(cycles)
	v["machine.retired"] = float64(ret)
	v["tagpipe.records"] = float64(recs)
	v["tagpipe.unit_checks"] = float64(uc)

	path := filepath.Join(lr.cfg.out, fmt.Sprintf("trace-%s-%d.json", name, lr.cfg.seed))
	if err := writeChrome(path, log, nochkLog); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	logf("spans: %d (checked) + %d (no checker) written to %s", len(log.spans), len(nochkLog.spans), path)
	return v, nil
}

// checkLayerRun validates one pool-path run, including the forensic
// bundle of an alert.
func checkLayerRun(o layerOp, res *shift.Result, bundle string, err error) error {
	if err != nil {
		return err
	}
	if res.Trap != nil {
		return fmt.Errorf("trap: %v", res.Trap)
	}
	if res.Pipe != nil {
		if d := res.Pipe.Divergence(); d != nil {
			return fmt.Errorf("checker divergence: %v", d)
		}
	}
	if res.Alert != nil && !strings.Contains(bundle, "violation") {
		return fmt.Errorf("forensic bundle names no violation")
	}
	return o.check(res, bundle)
}
