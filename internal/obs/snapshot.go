package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Snapshot is a point-in-time copy of a registry. Maps marshal with
// sorted keys, so the JSON form is deterministic.
type Snapshot struct {
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// Snapshot freezes the registry's current values. It is lock-free: the
// handle set comes from the registry's copy-on-write view and the
// values from each metric's own atomics, so a concurrent scrape (the
// telemetry /metrics endpoint) never blocks metric mutation or metric
// registration — and vice versa. Values read while writers run are
// per-metric atomic reads, not a consistent cross-metric cut: the delta
// between two snapshots attributes a run exactly only when nothing else
// ran in between.
func (r *Registry) Snapshot() Snapshot {
	v := r.view.Load()
	if v == nil {
		v = &metricView{}
	}
	s := Snapshot{
		Counters: make(map[string]uint64, len(v.counters)),
		Gauges:   make(map[string]float64, len(v.gauges)),
	}
	for _, c := range v.counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range v.gauges {
		s.Gauges[g.name] = g.Value()
	}
	return s
}

// Delta returns s minus prev: counter values are subtracted
// (attributing activity to the interval between the two snapshots);
// gauges keep their current values. Metrics absent from prev pass
// through unchanged.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Gauges:   make(map[string]float64, len(s.Gauges)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	return out
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// textBufPool recycles scrape buffers: a /metrics exposition is
// rendered into one pooled []byte and written with a single Write, so
// steady-state scrapes allocate only the snapshot itself.
var textBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 16<<10)
		return &b
	},
}

// WriteText renders the snapshot in Prometheus-style text exposition:
// a TYPE header and one "name value" line per counter and gauge. Dots
// and dashes in metric names become underscores. The whole exposition
// is assembled in a pooled buffer and written in one Write call.
func (s Snapshot) WriteText(w io.Writer) error {
	bp := textBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	names := make([]string, 0, max(len(s.Counters), len(s.Gauges)))

	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		b = append(b, "# TYPE "...)
		b = append(b, pn...)
		b = append(b, " counter\n"...)
		b = append(b, pn...)
		b = append(b, ' ')
		b = strconv.AppendUint(b, s.Counters[n], 10)
		b = append(b, '\n')
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		b = append(b, "# TYPE "...)
		b = append(b, pn...)
		b = append(b, " gauge\n"...)
		b = append(b, pn...)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, s.Gauges[n], 'g', -1, 64)
		b = append(b, '\n')
	}

	_, err := w.Write(b)
	*bp = b
	textBufPool.Put(bp)
	return err
}

// promReplacer is built once: per-call construction was the dominant
// allocation of a /metrics scrape. Replacers are concurrency-safe.
var promReplacer = strings.NewReplacer(".", "_", "-", "_")

func promName(name string) string {
	return promReplacer.Replace(name)
}
