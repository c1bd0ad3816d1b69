package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// kind is one request shape the serve workloads send.
type kind int

const (
	kIndex     kind = iota // GET /index.html, 81 bytes
	kNotFound              // GET of a missing page, answered 404
	kTraversal             // ?file=../../etc/passwd, answered 403 with a forensic bundle
	kPage                  // GET /page4096.html, 4096 bytes
)

// indexBody and pageBody are the bodies shiftd's built-in document root
// serves; every benign response must match them byte for byte.
var (
	indexBody = []byte("<html>shiftd: every byte of this page was served by an instrumented guest</html>\n")
	pageBody  = func() []byte {
		page := make([]byte, 4096)
		for i := range page {
			page[i] = byte('a' + i%26)
		}
		return page
	}()
)

// request is one generated request.
type request struct {
	kind kind
	path string // URL path and query sent to shiftd
}

// guestName is the file name the guest resolves (shiftd's requestName).
func (r request) guestName() string {
	if r.kind == kTraversal {
		return "../../etc/passwd"
	}
	return strings.TrimPrefix(r.path, "/")
}

// serveWorkload fixes one serve workload: its request mix, its nominal
// open-loop rate, its rate ladder and its latency limit.
type serveWorkload struct {
	mix     func(rng *rand.Rand) request
	nominal float64   // requests/s for p50_ms and p99_ms, about half of capacity
	ladder  []float64 // requests/s, ascending; contains nominal
	limitMs float64   // p99 latency limit for slo_rps
	shapes  []kind    // benign shapes the in-process program phase runs
}

var serveWorkloads = map[string]serveWorkload{
	"serve-small": {
		mix: func(rng *rand.Rand) request {
			switch u := rng.Float64(); {
			case u < 0.90:
				return request{kIndex, "/index.html"}
			case u < 0.95:
				return request{kNotFound, fmt.Sprintf("/missing-%d.html", rng.Intn(1000))}
			default:
				return request{kTraversal, "/?file=../../etc/passwd"}
			}
		},
		nominal: 400,
		ladder:  []float64{200, 250, 320, 400, 500, 640, 800, 1000, 1250, 1600, 2000, 2500, 3200},
		limitMs: 100,
		shapes:  []kind{kIndex, kNotFound},
	},
	"serve-page": {
		mix:     func(*rand.Rand) request { return request{kPage, "/page4096.html"} },
		nominal: 70,
		ladder:  []float64{35, 44, 55, 70, 88, 110, 140, 175, 220, 280, 350},
		limitMs: 300,
		shapes:  []kind{kPage},
	},
}

// checkResponse reports whether an HTTP response is the right answer to
// r: benign bodies byte for byte, 404s as 404s, traversals as a 403
// whose bundle names the violation and policy H2.
func checkResponse(r request, status int, body []byte) error {
	switch r.kind {
	case kIndex, kPage:
		want := indexBody
		if r.kind == kPage {
			want = pageBody
		}
		if status != http.StatusOK || !bytes.Equal(body, want) {
			return fmt.Errorf("%s: status %d, %d-byte body differs from the document root", r.path, status, len(body))
		}
	case kNotFound:
		if status != http.StatusNotFound {
			return fmt.Errorf("%s: status %d, want 404", r.path, status)
		}
	case kTraversal:
		if status != http.StatusForbidden || !bytes.Contains(body, []byte("violation")) || !bytes.Contains(body, []byte("H2")) {
			return fmt.Errorf("%s: status %d, want 403 with an H2 violation bundle", r.path, status)
		}
	}
	return nil
}

// client sends requests to one shiftd over at most conns connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 20 * time.Second}}
}

// do sends r and checks the response.
func (c *client) do(r request) error {
	resp, err := c.http.Get(c.base + r.path)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s: reading body: %w", r.path, err)
	}
	return checkResponse(r, resp.StatusCode, body)
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// shiftd is one running server process.
type shiftd struct {
	cmd     *exec.Cmd
	base    string
	stopped sync.Once
}

// addrWriter captures shiftd's standard output and delivers the listen
// address from its first line.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if n := bytes.IndexByte(w.buf.Bytes(), '\n'); n >= 0 && !w.sent {
		w.sent = true
		line := string(w.buf.Bytes()[:n])
		if i := strings.Index(line, "http://"); i >= 0 {
			w.addr <- strings.Fields(line[i:])[0]
		} else {
			w.addr <- ""
		}
	}
	return len(p), nil
}

// startShiftd execs bin with its default flags on a free loopback port
// and waits for its first correct response. It returns the server and
// the set-up time: from exec to that response.
func startShiftd(bin string) (*shiftd, time.Duration, error) {
	start := time.Now()
	out := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even a killed one.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting shiftd: %w", err)
	}
	s := &shiftd{cmd: cmd}
	select {
	case base := <-out.addr:
		if base == "" {
			s.stop()
			return nil, 0, errors.New("shiftd printed no listen address")
		}
		s.base = base
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, errors.New("shiftd did not start within 60s")
	}
	c := newClient(s.base, 1)
	defer c.close()
	probe := request{kIndex, "/index.html"}
	for {
		err := c.do(probe)
		if err == nil {
			return s, time.Since(start), nil
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("shiftd gave no good response within 60s: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB returns the server's VmHWM in MB.
func (s *shiftd) peakRSSMB() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

// stop terminates the server and waits until it has exited; later calls
// do nothing.
func (s *shiftd) stop() {
	s.stopped.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = s.cmd.Wait() // exit status of a terminated server is not of interest
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-done
		}
	})
}

// vmHWM reads a process's peak resident set size from /proc, in MB.
func vmHWM(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serveLevel runs one open-loop level of n requests at rate against c
// and returns its samples; wrong responses are logged and counted.
func serveLevel(c *client, wl serveWorkload, rng *rand.Rand, rate float64, n, conns int, t *tally) []sample {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = wl.mix(rng)
	}
	return openLoop(arrivals(rng, rate, n), conns, func(i int) bool {
		return t.check(c.do(reqs[i]))
	})
}
