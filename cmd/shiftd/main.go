// Command shiftd is the pooled-guest HTTP front end: a real net/http
// server where every request is executed by an instrumented guest (the
// Figure-6 request server) drawn from a warm pool, with full
// information-flow tracking, H2 policy checks on every open, forensic
// bundles on violation, and Prometheus metrics served from the same
// process.
//
// Modes:
//
//	shiftd                  serve until terminated
//	shiftd -smoke           start, verify benign/404/exploit handling, exit
//	shiftd -sweep           run the load harness and print a throughput table
//
// Flags: -addr, -pool (guests), -tagpipe (1 = check each request with
// the sink-granular checker, 0 = serve with tag tracking and policy
// checks but no checker; anything else exits with status 2),
// -selective (instrument only statically taint-reachable guest sites;
// the kept/skipped site counts are exported as shift_selective_sites_*
// gauges), -sweep-requests, -sweep-max (highest in-flight level, direct
// mode).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"shift/internal/instrument"
	"shift/internal/metrics"
	"shift/internal/pool"
	"shift/internal/shift"
	"shift/internal/workload"
)

// buildOptions is the server's run configuration: instrumented guest,
// default H-policies with network+file sources, the sink-granular
// checker when tagpipeN is 1 (no checker at 0), and — when selective is
// set — taint-reachability-pruned instrumentation.
func buildOptions(tagpipeN int, selective bool) shift.Options {
	return shift.Options{
		Instrument: true,
		Policy:     workload.HTTPDConfig(),
		Decoupled:  tagpipeN,
		Selective:  selective,
		InstrStats: new(instrument.Stats),
	}
}

// flagError is a flag value rejected before anything is built; main
// exits with status 2 on it, as shiftrun and shiftbench do.
type flagError struct{ error }

// exitStatus maps a start-up error to the process exit status.
func exitStatus(err error) int {
	var fe flagError
	if errors.As(err, &fe) {
		return 2
	}
	return 1
}

// buildPool validates the -tagpipe value, compiles the guest program and
// fills the warm pool. Serving, -smoke and -sweep all start here. Under
// selective instrumentation the kept/skipped site counts go to reg.
func buildPool(size, tagpipeN int, selective bool, reg *metrics.Registry) (*pool.Pool, error) {
	if err := shift.ValidateTagpipeFlag(tagpipeN); err != nil {
		return nil, flagError{err}
	}
	opt := buildOptions(tagpipeN, selective)
	prog, err := shift.Build([]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}}, opt)
	if err != nil {
		return nil, fmt.Errorf("building guest: %w", err)
	}
	if selective {
		shift.RegisterSelectiveMetrics(reg, opt.InstrStats)
	}
	return pool.New(prog, size, opt)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	poolSize := flag.Int("pool", 4, "warm guests in the pool")
	tagpipeN := flag.Int("tagpipe", 1, "1 = check each request with the sink-granular checker, 0 = no checker (tags and policies stay on)")
	smoke := flag.Bool("smoke", false, "run the smoke check against a live server and exit")
	sweep := flag.Bool("sweep", false, "run the load harness and exit")
	sweepRequests := flag.Int("sweep-requests", 2000, "requests per sweep level")
	sweepMax := flag.Int("sweep-max", 10000, "highest in-flight level (direct mode)")
	selective := flag.Bool("selective", false, "instrument only statically taint-reachable guest sites")
	flag.Parse()

	reg := metrics.NewRegistry()
	p, err := buildPool(*poolSize, *tagpipeN, *selective, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftd:", err)
		os.Exit(exitStatus(err))
	}
	s := newServer(p, reg)

	if *smoke {
		if err := runSmoke(s); err != nil {
			fmt.Fprintln(os.Stderr, "shiftd: smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("shiftd: smoke: PASS")
		return
	}
	if *sweep {
		if err := runSweep(os.Stdout, s, *poolSize, *tagpipeN, *sweepRequests, *sweepMax); err != nil {
			fmt.Fprintln(os.Stderr, "shiftd: sweep:", err)
			os.Exit(1)
		}
		return
	}

	srv := metrics.NewServer(s.handler())
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftd:", err)
		os.Exit(1)
	}
	fmt.Printf("shiftd: serving on http://%s (pool=%d tagpipe=%d, metrics at /metrics)\n",
		ln.Addr(), *poolSize, *tagpipeN)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		fmt.Println("shiftd: shutting down")
		_ = srv.Shutdown(context.Background())
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "shiftd:", err)
		os.Exit(1)
	}
	st := p.Stats()
	fmt.Printf("shiftd: served %d requests (%d recycles, %d pages restored, %d tag pages cleared)\n",
		st.Requests, st.Recycles, st.RestoredPages, st.ClearedPages)
}
