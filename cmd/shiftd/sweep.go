package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"shift/internal/metrics"
)

// exploitName is the traversal payload the smoke and sweep inject: a
// tainted request whose resolved path escapes the document root, which
// H2 must catch on the guest's open().
const exploitName = "../../etc/passwd"

// httpGet fetches a URL and returns status plus body.
func httpGet(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// runSmoke starts a live server on an ephemeral port, drives a short
// benign burst plus one exploit request over real HTTP, and verifies:
// benign content served byte-exact, 404 classification, exploit
// detected with a forensic bundle (both in the 403 body and at
// /forensics), metrics exposed, and a clean shutdown.
func runSmoke(s *server) error {
	srv := metrics.NewServer(s.handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	wantIndex := string(docRoot()["/www/htdocs/index.html"])

	// Benign burst: 24 requests over 8 connections, every body
	// byte-exact — a recycled guest serving anything stale fails here.
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				status, body, err := httpGet(client, base+"/index.html")
				if err != nil {
					errs <- err
					return
				}
				if status != http.StatusOK || string(body) != wantIndex {
					errs <- fmt.Errorf("benign request: status %d body %q", status, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	if status, body, err := httpGet(client, base+"/no-such-page.html"); err != nil {
		return err
	} else if status != http.StatusNotFound {
		return fmt.Errorf("missing page: status %d body %q, want 404", status, body)
	}

	status, body, err := httpGet(client, base+"/?file="+strings.ReplaceAll(exploitName, "/", "%2F"))
	if err != nil {
		return err
	}
	if status != http.StatusForbidden {
		return fmt.Errorf("exploit request: status %d, want 403", status)
	}
	for _, want := range []string{"violation", "H2", "provenance"} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("forensic bundle missing %q:\n%s", want, body)
		}
	}
	if status, fb, err := httpGet(client, base+"/forensics"); err != nil || status != http.StatusOK || !strings.Contains(string(fb), "violation") {
		return fmt.Errorf("/forensics: status %d err %v", status, err)
	}
	if status, mb, err := httpGet(client, base+"/metrics"); err != nil || status != http.StatusOK {
		return fmt.Errorf("/metrics: status %d err %v", status, err)
	} else {
		for _, want := range []string{"shift_pool_size", "shiftd_requests_total", "shiftd_alerts_total 1"} {
			if !strings.Contains(string(mb), want) {
				return fmt.Errorf("metrics exposition missing %q", want)
			}
		}
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		return fmt.Errorf("serve loop ended with %v, want ErrServerClosed", err)
	}
	st := s.pool.Stats()
	if st.Busy != 0 {
		return fmt.Errorf("pool busy=%d after shutdown", st.Busy)
	}
	fmt.Printf("shiftd: smoke: %d requests, 1 exploit detected with bundle, clean shutdown\n", st.Requests)
	return nil
}

// level is one sweep measurement: `inflight` concurrent submitters
// driving `requests` total requests.
type level struct {
	inflight int
	requests int
	viaHTTP  bool
}

// levelResult is the harness's measurement for one level.
type levelResult struct {
	level
	reqPerSec float64
	p50       time.Duration
	p99       time.Duration
	detected  int
	exploits  int
}

// runLevel drives one concurrency level. Every 50th request is the
// traversal exploit (expected 403 + bundle); every other response must
// be byte-exact — the zero-bleed assertion at load.
func runLevel(s *server, base string, client *http.Client, lv level) (*levelResult, error) {
	wantIndex := string(docRoot()["/www/htdocs/index.html"])
	lats := make([]time.Duration, lv.requests)
	var next, detected, exploits int64
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if int(next) >= lv.requests {
			return -1
		}
		next++
		return int(next) - 1
	}
	var wg sync.WaitGroup
	errOnce := sync.Once{}
	var firstErr error
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	start := time.Now()
	for i := 0; i < lv.inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := take()
				if n < 0 || firstErr != nil {
					return
				}
				evil := n%50 == 49
				name := "index.html"
				if evil {
					name = exploitName
				}
				t0 := time.Now()
				var status int
				var body []byte
				if lv.viaHTTP {
					url := base + "/" + name
					if evil {
						url = base + "/?file=" + strings.ReplaceAll(name, "/", "%2F")
					}
					var err error
					status, body, err = httpGet(client, url)
					if err != nil {
						fail(err)
						return
					}
				} else {
					status, body = s.serve(name)
				}
				lats[n] = time.Since(t0)
				if evil {
					mu.Lock()
					exploits++
					if status == http.StatusForbidden && strings.Contains(string(body), "violation") {
						detected++
					}
					mu.Unlock()
					continue
				}
				if status != http.StatusOK || string(body) != wantIndex {
					fail(fmt.Errorf("inflight=%d request %d: status %d body %.80q — response integrity broken",
						lv.inflight, n, status, body))
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	if detected != exploits {
		return nil, fmt.Errorf("inflight=%d: %d/%d exploits detected", lv.inflight, detected, exploits)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return &levelResult{
		level:     lv,
		reqPerSec: float64(lv.requests) / elapsed.Seconds(),
		p50:       lats[lv.requests/2],
		p99:       lats[lv.requests*99/100],
		detected:  int(detected),
		exploits:  int(exploits),
	}, nil
}

// runSweep is the load harness: HTTP transport at low in-flight levels,
// direct pool submission at high ones (10k concurrent sockets would
// need 2×10k descriptors; the direct mode measures the same serve path
// minus the socket). Every level asserts response integrity and full
// exploit detection.
func runSweep(w io.Writer, s *server, poolSize, workers, requests, maxInflight int) error {
	srv := metrics.NewServer(s.handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{
		Timeout:   5 * time.Minute,
		Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256},
	}

	var levels []level
	for _, inflight := range []int{1, 16, 64} {
		levels = append(levels, level{inflight: inflight, requests: requests, viaHTTP: true})
	}
	for _, inflight := range []int{256, 2048, maxInflight} {
		if inflight <= 64 {
			continue
		}
		reqs := requests
		if reqs < inflight {
			reqs = inflight // every submitter genuinely in flight at once
		}
		levels = append(levels, level{inflight: inflight, requests: reqs, viaHTTP: false})
	}

	fmt.Fprintf(w, "shiftd sweep: pool=%d tagpipe=%d\n", poolSize, workers)
	fmt.Fprintf(w, "%-9s %9s %9s %12s %12s %10s\n", "mode", "inflight", "requests", "req/s", "p50", "p99")
	for _, lv := range levels {
		res, err := runLevel(s, base, client, lv)
		if err != nil {
			return err
		}
		mode := "direct"
		if lv.viaHTTP {
			mode = "http"
		}
		fmt.Fprintf(w, "%-9s %9d %9d %12.1f %12s %10s\n",
			mode, res.inflight, res.requests, res.reqPerSec, res.p50.Round(time.Microsecond), res.p99.Round(time.Millisecond))
	}
	st := s.pool.Stats()
	fmt.Fprintf(w, "pool: %d recycles, %.1f pages restored/recycle, %d tag pages cleared\n",
		st.Recycles, float64(st.RestoredPages)/float64(max(1, st.Recycles)), st.ClearedPages)
	return nil
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
