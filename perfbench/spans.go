package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one operation share req;
// parent indexes the span that made the call (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // offsets from the log's origin
	parent     int
	req        int
}

// spanLog keeps spans in memory for the length of a traced run. It is
// used from one goroutine.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (l *spanLog) begin(name string, parent, req int) int {
	l.spans = append(l.spans, span{name: name, start: time.Since(l.t0), parent: parent, req: req})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) { l.spans[i].end = time.Since(l.t0) }

// layerTimes is the per-name aggregate of a span log.
type layerTimes struct {
	self  map[string]time.Duration // duration minus the time child spans cover
	total map[string]time.Duration
	count map[string]int
}

// aggregate sums each name's count, total and self time. Children of a
// span are sequential calls, so the part of its interval they cover is
// the sum of their durations.
func (l *spanLog) aggregate() layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}, count: map[string]int{}}
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range l.spans {
		d := s.end - s.start
		lt.total[s.name] += d
		lt.self[s.name] += d - child[i]
		lt.count[s.name]++
	}
	return lt
}

// chromeEvent is one complete event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the logs as one Chrome-trace JSON file, one process
// per log (viewable in Perfetto or chrome://tracing).
func writeChrome(path string, logs ...*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for pid, l := range logs {
		for _, s := range l.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			ev := chromeEvent{
				Name: s.name, Ph: "X", Pid: pid + 1, Tid: 1,
				Ts:   float64(l.t0.Sub(logs[0].t0)+s.start) / 1e3,
				Dur:  float64(s.end-s.start) / 1e3,
				Args: map[string]int{"req": s.req, "parent": s.parent},
			}
			if err := enc.Encode(ev); err != nil {
				f.Close()
				return err
			}
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
