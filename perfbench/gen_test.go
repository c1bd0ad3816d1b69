package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestArrivalsSeededAndAtRate(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 500, 5000)
	b := arrivals(rand.New(rand.NewSource(7)), 500, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between runs of one seed: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	if rate := 5000 / a[len(a)-1].Seconds(); rate < 450 || rate > 550 {
		t.Errorf("5000 arrivals at 500/s span %v (%.0f/s)", a[len(a)-1], rate)
	}
}

// With one connection and every operation due at once, each operation
// waits for the ones before it, and its latency, timed from when it was
// due, includes that wait; the generator itself is not late.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const service = 20 * time.Millisecond
	due := []time.Duration{0, 0, 0, 0}
	var mu sync.Mutex
	inFlight, most := 0, 0
	samples := openLoop(due, 1, func(int) bool {
		mu.Lock()
		inFlight++
		most = max(most, inFlight)
		mu.Unlock()
		time.Sleep(service)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return true
	})
	if most != 1 {
		t.Errorf("%d operations in flight on one connection", most)
	}
	for i, s := range samples {
		if !s.ok {
			t.Errorf("operation %d not ok", i)
		}
		if late := s.lateMs(); late > 5 {
			t.Errorf("operation %d dispatched %.3f ms late", i, late)
		}
		if min := float64(i+1) * ms(service); s.latencyMs() < min {
			t.Errorf("operation %d latency %.3f ms, want at least %.0f ms (queued behind %d)", i, s.latencyMs(), min, i)
		}
	}
}

// A dispatcher follows the schedule: nothing is sent before it is due.
func TestOpenLoopNeverEarly(t *testing.T) {
	due := arrivals(rand.New(rand.NewSource(1)), 1000, 200)
	samples := openLoop(due, 2, func(int) bool { return true })
	for i, s := range samples {
		if s.sent < s.due || s.done < s.sent {
			t.Fatalf("operation %d: due %v sent %v done %v", i, s.due, s.sent, s.done)
		}
	}
}

func level(lat, late []float64, ok []bool) []sample {
	s := make([]sample, len(lat))
	for i := range s {
		d := time.Duration(i) * time.Millisecond
		s[i] = sample{due: d, sent: d + time.Duration(late[i]*1e6), done: d + time.Duration(lat[i]*1e6), ok: ok[i]}
	}
	return s
}

func TestSummarizeLatenessAndLimits(t *testing.T) {
	const n = 1000
	lat, late, ok := make([]float64, n), make([]float64, n), make([]bool, n)
	for i := range lat {
		lat[i], late[i], ok[i] = 2, 0.1, true
	}
	// Ten slow requests: p99 (the 990th of 1000) is still 2 ms.
	for i := 0; i < 10; i++ {
		lat[i*97] = 500
	}
	r := summarize(level(lat, late, ok), 100, 100)
	if r.p50 != 2 || r.p99 != 2 || r.lateP99 != 0.1 || r.failed != 0 || r.growing || r.behind {
		t.Fatalf("summary %+v", r)
	}
	if !r.pass(100) {
		t.Error("level within its limit does not pass")
	}

	// An eleventh slow one moves p99 over the limit.
	lat[5] = 500
	if r := summarize(level(lat, late, ok), 100, 100); r.p99 != 500 || r.pass(100) {
		t.Errorf("11 slow of 1000: p99 %g, pass %v", r.p99, r.pass(100))
	}
	lat[5] = 2

	// A failed request counts as over any limit.
	ok[3] = false
	if r := summarize(level(lat, late, ok), 100, 100); r.failed != 1 || r.pass(100) {
		t.Errorf("failed request: failed %d, pass %v", r.failed, r.pass(100))
	}
	ok[3] = true

	// A generator that ran late is not credited.
	for i := 0; i < 20; i++ {
		late[i*50] = 60
	}
	if r := summarize(level(lat, late, ok), 100, 100); r.lateP99 != 60 || !r.behind || r.pass(100) {
		t.Errorf("late generator: late p99 %g, behind %v, pass %v", r.lateP99, r.behind, r.pass(100))
	}
	for i := range late {
		late[i] = 0.1
	}

	// A backlog that grows through the level is caught.
	for i := range lat {
		lat[i] = 1 + float64(i)*0.05
	}
	if r := summarize(level(lat, late, ok), 100, 100); !r.growing || r.pass(100) {
		t.Errorf("growing backlog: growing %v, p99 %g", r.growing, r.p99)
	}
}
