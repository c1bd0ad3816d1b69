// Package tagpipe is the decoupled tag pipeline: asynchronous shadow
// taint propagation over a retirement log, the software analogue of the
// paper's separate tag-datapath argument and of the trace-fed DIFT
// coprocessor line of work.
//
// The execution engine (producer) encodes one compact record per
// retired instruction — the oracle package's encoder, so the record is
// the same one the lockstep oracle applies — into a bounded ring of
// segments. A single committer goroutine applies each segment's records
// to the committed shadow state (oracle.State) in retirement order.
// Policy-relevant sinks (syscalls, chk.s recoveries, host effects on
// guest memory) are synchronization points: the producer drains the
// ring, so every verdict is rendered against fully propagated state.
//
// The lag between execution and propagation is bounded by the ring:
// Segments × SegRecords records. Within that window the mechanical NaT
// rules and the NaT-implies-taint check keep per-record granularity
// (the producer snapshots the machine facts into the record); the
// register-equality and bitmap cross-checks run at sink granularity
// rather than at every original-instruction boundary — see DESIGN.md
// "Decoupled tag pipeline" for why the verdicts still agree with the
// inline lockstep oracle.
package tagpipe

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"shift/internal/machine"
	"shift/internal/oracle"
	"shift/internal/taint"
)

// ValidateFlag checks a -tagpipe flag value: 0 keeps checking inline,
// 1 runs the decoupled pipeline. Every command that takes the flag
// rejects anything else with this message.
func ValidateFlag(n int) error {
	if n != 0 && n != 1 {
		return fmt.Errorf("invalid -tagpipe value %d (want 0 = inline checking or 1 = decoupled pipeline)", n)
	}
	return nil
}

// Config selects what the pipeline tracks and how it is provisioned.
// The first three fields mirror oracle.Config — the pipeline renders the
// same verdicts, just asynchronously.
type Config struct {
	// Tags is the tag bitmap under test; nil disables bitmap cross-checks.
	Tags *taint.Space
	// Instrumented states that the guest maintains tags; false keeps only
	// the mechanical NaT-rule checks.
	Instrumented bool
	// UnsafePreempt mirrors machine.Machine.UnsafePreempt: the strong
	// checks stand down once a second thread spawns.
	UnsafePreempt bool
	// SegRecords is the record capacity of one ring segment (default 256).
	SegRecords int
	// Segments is the ring depth in segments (default 64). The lag window
	// is Segments × SegRecords records; a producer that gets further ahead
	// stalls until the committer frees a segment. Segments are allocated
	// when the producer first needs them.
	Segments int
}

// Stats are the pipeline's own counters, all safe for concurrent access
// (metrics read them while the run is in flight).
type Stats struct {
	Records    atomic.Uint64 // retirement-log records emitted
	Segments   atomic.Uint64 // segments submitted
	Stalls     atomic.Uint64 // producer waits for a free segment
	Drains     atomic.Uint64 // sink synchronizations
	RegChecks  atomic.Uint64 // register boundary comparisons at sinks
	UnitChecks atomic.Uint64 // bitmap unit comparisons at sinks
	Sweeps     atomic.Uint64 // syscall/final bitmap sweeps
}

// Pipeline is the decoupled tag engine. It implements machine.StepHook
// (the producer side), the shift package's HostEffects interface, and
// its SinkSyncer extension. Producer-side methods must be called from
// the execution goroutine only.
type Pipeline struct {
	cfg Config
	st  *oracle.State
	enc oracle.Encoder

	cur       *segment // partial segment being filled
	lastSeq   uint64   // seq of the last submitted segment (drain target)
	allocated int      // segments built so far, at most cfg.Segments

	// Both channels hold up to the ring depth: at most Segments segments
	// exist, so a send on either never blocks.
	free chan *segment // recycled segments
	full chan *segment // producer → committer, in retirement order

	mu         sync.Mutex
	cond       *sync.Cond
	appliedSeq uint64
	failure    *oracle.Divergence
	failed     atomic.Bool

	producedRecs atomic.Uint64
	appliedRecs  atomic.Uint64

	committerDone chan struct{}
	closed        bool

	Stats Stats
}

// segment is one ring slot: a batch of records stamped with a sequence
// number. Segments cycle free → producer → committer → free.
type segment struct {
	seq  uint64
	recs []oracle.Rec
}

// New builds a pipeline and starts its committer. Close must be called
// to stop it.
func New(cfg Config) *Pipeline {
	if cfg.SegRecords <= 0 {
		cfg.SegRecords = 256
	}
	if cfg.Segments <= 0 {
		cfg.Segments = 64
	}
	p := &Pipeline{
		cfg: cfg,
		st: oracle.NewState(oracle.Config{
			Tags:          cfg.Tags,
			Instrumented:  cfg.Instrumented,
			UnsafePreempt: cfg.UnsafePreempt,
		}),
		enc:           oracle.Encoder{Instrumented: cfg.Instrumented},
		free:          make(chan *segment, cfg.Segments),
		full:          make(chan *segment, cfg.Segments),
		committerDone: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	go p.committer()
	return p
}

// Attach installs the pipeline as the machine's step hook.
func (p *Pipeline) Attach(m *machine.Machine) {
	m.Hook = p
}

// Divergence returns the first divergence found, or nil.
func (p *Pipeline) Divergence() *oracle.Divergence {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failure
}

// Lag reports how many retired records are still awaiting propagation.
func (p *Pipeline) Lag() uint64 {
	pr, ap := p.producedRecs.Load(), p.appliedRecs.Load()
	if ap >= pr {
		return 0
	}
	return pr - ap
}

// Close stops the committer, applying everything already submitted.
// Records still in the partial producer segment are submitted first so
// counters reconcile. Idempotent; producer-goroutine only.
func (p *Pipeline) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.flushSeg()
	close(p.full)
	<-p.committerDone
}

// Finish drains the ring and runs the final sink checks (register sweep
// + bitmap sweep) after a clean halt, mirroring oracle.Finish. Call it
// once execution has halted without a trap, before Close.
func (p *Pipeline) Finish(m *machine.Machine) error {
	p.drain()
	if err := p.failureErr(m); err != nil {
		return err
	}
	if !p.st.Checking() {
		return nil
	}
	if d := p.sinkChecks(m, -1, true); d != nil {
		return p.latchErr(m, "finish", d)
	}
	return nil
}

// sinkChecks runs the sink's register cross-check, skipping register
// skip, and then, if sweep is set, the full bitmap sweep, counting both.
// The ring must be drained.
func (p *Pipeline) sinkChecks(m *machine.Machine, skip int, sweep bool) *oracle.Divergence {
	n, d := p.st.CheckRegs(m, skip)
	p.Stats.RegChecks.Add(n)
	if d != nil || !sweep {
		return d
	}
	p.Stats.Sweeps.Add(1)
	n, d = p.st.Sweep(m)
	p.Stats.UnitChecks.Add(n)
	return d
}

// grab takes a free segment. The ring fills lazily: while fewer than
// Segments exist, a producer that finds none free builds a new one, so a
// short run allocates only the segments it fills. Once all Segments are
// in flight the producer stalls, counted, until the committer frees one.
func (p *Pipeline) grab() *segment {
	select {
	case s := <-p.free:
		return s
	default:
	}
	if p.allocated < p.cfg.Segments {
		p.allocated++
		return &segment{recs: make([]oracle.Rec, 0, p.cfg.SegRecords)}
	}
	p.Stats.Stalls.Add(1)
	return <-p.free
}

// slot returns the next free record slot of the open segment, taking a
// segment first if none is open. The record written there joins the
// segment only when push is called.
func (p *Pipeline) slot() *oracle.Rec {
	if p.cur == nil {
		p.cur = p.grab()
	}
	recs := p.cur.recs
	return &recs[:len(recs)+1][len(recs)]
}

// push adds the record written at slot to the open segment, submitting
// the segment when it fills.
func (p *Pipeline) push() {
	p.cur.recs = p.cur.recs[:len(p.cur.recs)+1]
	if len(p.cur.recs) >= p.cfg.SegRecords {
		p.flushSeg()
	}
}

// flushSeg submits the partial segment, if any.
func (p *Pipeline) flushSeg() {
	if p.cur == nil || len(p.cur.recs) == 0 {
		return
	}
	p.lastSeq++
	p.cur.seq = p.lastSeq
	n := uint64(len(p.cur.recs))
	p.producedRecs.Add(n)
	p.Stats.Records.Add(n)
	p.Stats.Segments.Add(1)
	p.full <- p.cur
	p.cur = nil
}

// drain submits the partial segment and blocks until everything
// submitted has been applied (or skipped, after a failure) — the sink
// synchronization point. On return the committed state is quiescent and
// the producer may read and mutate it directly: the cond wait under mu
// establishes the happens-before edge with the committer's writes.
func (p *Pipeline) drain() {
	p.Stats.Drains.Add(1)
	p.flushSeg()
	target := p.lastSeq
	p.mu.Lock()
	for p.appliedSeq < target {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// failureErr returns the latched divergence as the PostStep error,
// rendering the shadow snapshot lazily (producer goroutine, machine
// quiescent — the committer cannot touch the machine).
func (p *Pipeline) failureErr(m *machine.Machine) error {
	p.mu.Lock()
	d := p.failure
	p.mu.Unlock()
	if d == nil {
		return nil
	}
	if d.Snapshot == "" {
		d.Snapshot = p.snapshot(m)
	}
	return d
}

// latchErr records a producer-side (sink check) divergence at
// instruction ins, keeping the first one if the committer raced one in.
func (p *Pipeline) latchErr(m *machine.Machine, ins string, d *oracle.Divergence) error {
	d.Ins = ins
	d.Snapshot = p.snapshot(m)
	p.mu.Lock()
	if p.failure == nil {
		p.failure = d
		p.failed.Store(true)
	}
	d = p.failure
	p.mu.Unlock()
	return d
}

// snapshot renders the shadow state for a divergence report.
func (p *Pipeline) snapshot(m *machine.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  tid=%d pc=%d retired=%d cycles=%d halted=%v (decoupled; detection is sink-granular)\n",
		m.TID, m.PC, m.Retired, m.Cycles, m.Halted)
	p.st.WriteRegs(&b, m)
	return b.String()
}

// committer applies segments in retirement order, recycles each one and
// publishes its sequence number. After a failure it keeps recycling
// segments (skipping the apply) so the producer's drains and stalls
// always terminate.
func (p *Pipeline) committer() {
	defer close(p.committerDone)
	for seg := range p.full {
		var d *oracle.Divergence
		if !p.failed.Load() {
			for i := range seg.recs {
				if d = p.st.Apply(&seg.recs[i]); d != nil {
					break
				}
			}
		}
		p.appliedRecs.Add(uint64(len(seg.recs)))
		seq := seg.seq
		seg.recs = seg.recs[:0]
		// Recycle before publishing: a drain that returns finds every
		// applied segment free again, so the lazily filled ring does not
		// grow past what the producer really has in flight.
		p.free <- seg
		p.mu.Lock()
		if d != nil && p.failure == nil {
			p.failure = d
			p.failed.Store(true)
		}
		p.appliedSeq = seq
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}
