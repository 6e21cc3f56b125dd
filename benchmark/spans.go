package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. The benchmark records it around
// the call; the program itself carries no instrumentation.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Detail string // e.g. the scheme or cell the call worked on
	Trace  string // one trace id per workload
	Start  time.Duration
	End    time.Duration // both measured from the recorder's origin
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	trace  string
	spans  []span
}

func newRecorder(trace string) *recorder {
	return &recorder{origin: time.Now(), trace: trace}
}

// do runs fn inside a new span under parent and returns the span's
// duration, which is also the measurement the caller reports.
func (r *recorder) do(parent int, name, detail string, fn func(id int) error) (time.Duration, error) {
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Detail: detail, Trace: r.trace})
	r.mu.Unlock()
	start := time.Since(r.origin)
	err := fn(id)
	end := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = start, end
	r.mu.Unlock()
	return end - start, err
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime aggregates the spans of one name.
type selfTime struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the part of it that its child spans cover. Children
// that overlap one another are counted once. The result is sorted by self
// time, largest first.
func selfTimes(spans []span) []selfTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*selfTime)
	var order []string
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.Count++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]selfTime, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), which ui.perfetto.dev and
// chrome://tracing load directly.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace, "detail": s.Detail},
		})
	}
	blob, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
