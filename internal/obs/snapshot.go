package obs

import (
	"io"
	"strconv"
	"strings"
	"sync"
)

// Snapshot is a point-in-time copy of a registry's values, keyed by
// metric name; tests subtract two of them (Delta) to attribute a run.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]float64
}

// Snapshot freezes the registry's current values. It is lock-free: the
// handle set comes from the registry's copy-on-write view and the
// values from each metric's own atomics, so it never blocks metric
// mutation or metric registration — and vice versa. Values read while
// writers run are per-metric atomic reads, not a consistent
// cross-metric cut: the delta between two snapshots attributes a run
// exactly only when nothing else ran in between.
func (r *Registry) Snapshot() Snapshot {
	v := r.view.Load()
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

// textBufPool recycles scrape buffers: a /metrics exposition is
// rendered into one pooled []byte and written with a single Write, so
// a steady-state scrape allocates nothing.
var textBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 16<<10)
		return &b
	},
}

// WriteText renders the registry in Prometheus-style text exposition: a
// TYPE header and one "name value" line per counter, then per gauge,
// each block sorted by name. It walks the registry's view, lock-free as
// Snapshot is; each metric's header and name were rendered when it
// registered (expoHead). The whole exposition is assembled in a pooled
// buffer and written in one Write call.
func (r *Registry) WriteText(w io.Writer) error {
	v := r.view.Load()
	bp := textBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	for _, c := range v.counters {
		b = append(b, c.head...)
		b = strconv.AppendUint(b, c.Value(), 10)
		b = append(b, '\n')
	}
	for _, g := range v.gauges {
		b = append(b, g.head...)
		b = strconv.AppendFloat(b, g.Value(), 'g', -1, 64)
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	*bp = b
	textBufPool.Put(bp)
	return err
}

// expoHead renders a metric's exposition up to its value: the TYPE
// header and the start of the sample line, under the Prometheus form of
// the name (dots and dashes become underscores).
func expoHead(name, kind string) string {
	prom := strings.NewReplacer(".", "_", "-", "_").Replace(name)
	return "# TYPE " + prom + " " + kind + "\n" + prom + " "
}
