package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Hierarchical spans: timed scopes with parent/child linkage, exported
// as Chrome trace events so a whole sweep renders as a flame view in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// A span's parent is the span its context carries, and nothing else:
// StartSpan returns a context carrying the new span, and a span started
// under that context nests under it, on this goroutine or another. So
// one sweep gives one tree at any worker count.
//
// Each span is drawn on a track (the trace's tid). A root opens its own
// track. A child takes its parent's track while no other child holds
// it, and otherwise opens its own; a stopped span lends its track to no
// later child. So as long as children stop before their parents, spans
// on one track nest or are disjoint, which is what Perfetto's flame
// rows need.
//
// Like metrics, spans are atomic-gated: with no sink installed,
// StartSpan costs one atomic load and returns ctx with a shared no-op
// stop — zero allocations on instrumented hot paths
// (BenchmarkSpanDisabled guards this in make ci).

// Span is one finished timed scope as handed to the sink. Start is
// relative to the process-wide span epoch; Track is the trace track the
// span is drawn on.
type Span struct {
	ID       uint64
	ParentID uint64 // 0 for roots
	Name     string
	Track    uint64
	Start    time.Duration
	Dur      time.Duration
}

// SpanSink receives finished spans. Emit may be called from any
// goroutine; implementations synchronize internally.
type SpanSink interface {
	EmitSpan(Span)
}

// spanEpoch anchors span timestamps (and the runtime.uptime gauge).
var spanEpoch = time.Now()

var spans struct {
	sink   atomic.Pointer[SpanSink] // nil: spans off
	seq    atomic.Uint64            // last span id
	tracks atomic.Uint64            // last track id
}

// A span's state: whether a child may take the span's track.
const (
	trackFree   uint32 = iota // open, no child holds the track
	trackLent                 // open, a child holds the track
	spanStopped               // stopped: lends its track to no later child
)

// spanNode is one open span.
type spanNode struct {
	id       uint64
	parentID uint64
	track    uint64
	lender   *spanNode // whose track this span holds; nil if it opened its own
	state    atomic.Uint32
	name     string
	start    time.Duration
}

// SetSpanSink installs (nil: removes) the span sink and gates span
// collection on its presence.
func SetSpanSink(s SpanSink) {
	if s == nil {
		spans.sink.Store(nil)
		return
	}
	spans.sink.Store(&s)
}

// SpansEnabled reports whether a span sink is installed. Call sites
// that build span names dynamically (fmt/concat allocate) must check it
// first so the disabled path stays allocation-free.
func SpansEnabled() bool { return spans.sink.Load() != nil }

// spanCtxKey carries the current span in a context.
type spanCtxKey struct{}

// StartSpan opens a named span under the span ctx carries (a root when
// it carries none). It returns the context to hand to child work, on
// this goroutine or any other, and the stop function closing the span:
//
//	ctx, stop := obs.StartSpan(ctx, "experiments.sweep")
//	defer stop()
//
// With spans disabled the call is one atomic load, returns ctx
// unchanged, and allocates nothing.
func StartSpan(ctx context.Context, name string) (context.Context, func()) {
	if !SpansEnabled() {
		return ctx, nopStop
	}
	n := &spanNode{id: spans.seq.Add(1), name: name}
	if p, ok := ctx.Value(spanCtxKey{}).(*spanNode); ok {
		n.parentID = p.id
		if p.state.CompareAndSwap(trackFree, trackLent) {
			n.track, n.lender = p.track, p
		}
	}
	if n.lender == nil {
		n.track = spans.tracks.Add(1)
	}
	// Timed after the track is taken: the span that last held it ended
	// before the hand-over, so the two cannot overlap.
	n.start = time.Since(spanEpoch)
	return context.WithValue(ctx, spanCtxKey{}, n), n.stop
}

// stop closes the span, hands its track back to its lender and emits
// it. A span stopped while a child still holds its track keeps the
// track from its lender for good, so no later span on that track can
// overlap the child.
func (n *spanNode) stop() {
	end := time.Since(spanEpoch)
	if n.state.Swap(spanStopped) == trackFree && n.lender != nil {
		n.lender.state.CompareAndSwap(trackLent, trackFree)
	}
	if sink := spans.sink.Load(); sink != nil {
		(*sink).EmitSpan(Span{
			ID: n.id, ParentID: n.parentID, Name: n.name, Track: n.track,
			Start: n.start, Dur: end - n.start,
		})
	}
}

// NopSpanSink discards every span; installing it exercises the full
// span path (allocation, track upkeep) without retaining anything —
// BenchmarkSpanEnabled measures against it.
type NopSpanSink struct{}

// EmitSpan implements SpanSink.
func (NopSpanSink) EmitSpan(Span) {}

// MemorySpanSink captures spans for tests.
type MemorySpanSink struct {
	mu    sync.Mutex
	spans []Span
}

// EmitSpan implements SpanSink.
func (m *MemorySpanSink) EmitSpan(sp Span) {
	m.mu.Lock()
	m.spans = append(m.spans, sp)
	m.mu.Unlock()
}

// Spans returns a copy of everything captured so far.
func (m *MemorySpanSink) Spans() []Span {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Span, len(m.spans))
	copy(out, m.spans)
	return out
}

// ChromeTraceSink streams spans as a Chrome trace-event JSON array —
// complete ("ph":"X") events with tid = the span's track, so Perfetto
// and chrome://tracing nest them into flame tracks by time containment,
// with the explicit span/parent ids in args. Close writes
// the closing bracket and flushes; the first write error sticks.
type ChromeTraceSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	n   int
	err error
}

// NewChromeTraceSink starts a trace-event array on w.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink {
	s := &ChromeTraceSink{bw: bufio.NewWriter(w)}
	_, s.err = s.bw.WriteString("[\n")
	return s
}

// chromeEvent is one trace-event record; ts/dur are microseconds.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  uint64  `json:"tid"`
	Args struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent,omitempty"`
	} `json:"args"`
}

// EmitSpan implements SpanSink.
func (s *ChromeTraceSink) EmitSpan(sp Span) {
	ev := chromeEvent{
		Name: sp.Name, Cat: "span", Ph: "X",
		TS:  float64(sp.Start.Nanoseconds()) / 1e3,
		Dur: float64(sp.Dur.Nanoseconds()) / 1e3,
		PID: 1, TID: sp.Track,
	}
	ev.Args.ID, ev.Args.Parent = sp.ID, sp.ParentID
	blob, err := json.Marshal(ev)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err != nil {
		s.err = err
		return
	}
	if s.n > 0 {
		if _, s.err = s.bw.WriteString(",\n"); s.err != nil {
			return
		}
	}
	s.n++
	_, s.err = s.bw.Write(blob)
}

// Close terminates the JSON array and flushes. The sink must be
// detached (SetSpanSink(nil)) before Close.
func (s *ChromeTraceSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if _, err := s.bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return s.bw.Flush()
}
