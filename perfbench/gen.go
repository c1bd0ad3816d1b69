package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// arrivals returns n due times, offsets from the start of a level, of a
// Poisson arrival process at rate per second drawn from rng.
func arrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// sample is one operation of an open-loop level, all times offsets from
// the level's start.
type sample struct {
	due  time.Duration // when the schedule says it must be sent
	sent time.Duration // when the dispatcher handed it to a connection
	done time.Duration // when its response was complete and checked
	ok   bool          // response arrived and passed its output check
}

// latencyMs is the operation's latency as a user sees it: from when it
// was due, so time spent waiting for a free connection counts.
func (s sample) latencyMs() float64 { return ms(s.done - s.due) }

// lateMs is how late the generator itself handed the operation over.
func (s sample) lateMs() float64 { return ms(s.sent - s.due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop runs one level: a dispatcher releases operation i at due[i]
// whatever the state of earlier ones, and at most workers operations are
// in flight (one per connection). do performs operation i and reports
// whether its output was correct. openLoop returns when every operation
// has completed.
func openLoop(due []time.Duration, workers int, do func(i int) bool) []sample {
	samples := make([]sample, len(due))
	queue := make(chan int, len(due)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				ok := do(i)
				samples[i].done = time.Since(start)
				samples[i].ok = ok
			}
		}()
	}
	// The dispatcher sleeps in nanosleep on its own OS thread: the Go
	// timer wakes up to a millisecond late, which would show as lateness.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i, d := range due {
		for wait := d - time.Since(start); wait > 0; wait = d - time.Since(start) {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
		}
		samples[i].due = d
		samples[i].sent = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// levelResult summarizes one open-loop level against a latency limit.
type levelResult struct {
	rate     float64
	n        int
	failed   int     // operations that errored or returned wrong output
	p50, p99 float64 // latency from due time, ms; failures count as +Inf
	lateP99  float64 // generator lateness, ms
	growing  bool    // backlog grew across the level
	behind   bool    // generator lateness exceeded its allowance
}

// pass reports whether the level meets the service objective: p99 within
// limit, no failures, no growing backlog, and a generator that kept to
// its schedule (a level it fell behind on is not credited).
func (l levelResult) pass(limitMs float64) bool {
	return l.failed == 0 && l.p99 <= limitMs && !l.growing && !l.behind
}

// summarize computes a level's latency percentiles (nearest rank), its
// generator lateness and whether its backlog grew. The backlog counts as
// growing when the median latency of the level's last quarter exceeds
// that of its first quarter by more than a quarter of the limit; the
// generator is behind when its p99 lateness exceeds half the limit.
func summarize(samples []sample, rate, limitMs float64) levelResult {
	r := levelResult{rate: rate, n: len(samples)}
	lat := make([]float64, len(samples))
	late := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.latencyMs()
		if !s.ok {
			r.failed++
			lat[i] = math.Inf(1)
		}
		late[i] = s.lateMs()
	}
	sl := sortedCopy(lat)
	r.p50, _ = percentile(sl, 50)
	r.p99, _ = percentile(sl, 99)
	r.lateP99, _ = percentile(sortedCopy(late), 99)
	if q := len(lat) / 4; q > 0 {
		r.growing = median(lat[len(lat)-q:]) > median(lat[:q])+limitMs/4
	}
	r.behind = r.lateP99 > limitMs/2
	return r
}
