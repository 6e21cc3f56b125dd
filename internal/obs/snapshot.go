package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// BucketCount is one histogram bucket in a snapshot: the inclusive upper
// bound (math.Inf(1) for the overflow bucket, rendered as "+Inf") and the
// number of observations that landed in it.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// MarshalJSON renders the +Inf overflow bound as the string "+Inf", which
// encoding/json cannot represent as a number.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.LE, 1) {
		le = fmt.Sprintf("%g", b.LE)
	}
	return json.Marshal(struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"`
	}{le, b.Count})
}

// UnmarshalJSON parses the string form written by MarshalJSON.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if raw.LE == "+Inf" {
		b.LE = math.Inf(1)
		return nil
	}
	_, err := fmt.Sscanf(raw.LE, "%g", &b.LE)
	return err
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	Buckets []BucketCount `json:"buckets"`
}

// Mean returns the average observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry. Maps marshal with
// sorted keys, so the JSON form is deterministic.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
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
		Counters:   make(map[string]uint64, len(v.counters)),
		Gauges:     make(map[string]float64, len(v.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(v.hists)),
	}
	for _, c := range v.counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range v.gauges {
		s.Gauges[g.name] = g.Value()
	}
	for _, h := range v.hists {
		hs := HistogramSnapshot{
			Count:   h.count.Load(),
			Sum:     h.Sum(),
			Buckets: make([]BucketCount, len(h.counts)),
		}
		// An empty histogram reports 0/0 rather than the +/-Inf sentinels,
		// which would break JSON encoding.
		if hs.Count > 0 {
			hs.Min = math.Float64frombits(h.minBits.Load())
			hs.Max = math.Float64frombits(h.maxBits.Load())
		}
		for i := range h.counts {
			le := math.Inf(1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hs.Buckets[i] = BucketCount{LE: le, Count: h.counts[i].Load()}
		}
		s.Histograms[h.name] = hs
	}
	return s
}

// Delta returns s minus prev: counter values and histogram counts/sums
// are subtracted (attributing activity to the interval between the two
// snapshots); gauges and histogram min/max keep their current values.
// Metrics absent from prev pass through unchanged.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p := prev.Histograms[name]
		d := HistogramSnapshot{
			Count:   h.Count - p.Count,
			Sum:     h.Sum - p.Sum,
			Min:     h.Min,
			Max:     h.Max,
			Buckets: make([]BucketCount, len(h.Buckets)),
		}
		for i, b := range h.Buckets {
			c := b.Count
			if i < len(p.Buckets) && p.Buckets[i].LE == b.LE {
				c -= p.Buckets[i].Count
			}
			d.Buckets[i] = BucketCount{LE: b.LE, Count: c}
		}
		out.Histograms[name] = d
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
// one "name value" line per counter and gauge, and _bucket/_sum/_count
// lines per histogram. Dots in metric names become underscores. The
// whole exposition is assembled in a pooled buffer and written in one
// Write call.
func (s Snapshot) WriteText(w io.Writer) error {
	bp := textBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	names := make([]string, 0, max(len(s.Counters), max(len(s.Gauges), len(s.Histograms))))

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

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		pn := promName(n)
		b = append(b, "# TYPE "...)
		b = append(b, pn...)
		b = append(b, " histogram\n"...)
		cum := uint64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			b = append(b, pn...)
			b = append(b, "_bucket{le=\""...)
			if math.IsInf(bk.LE, 1) {
				b = append(b, "+Inf"...)
			} else {
				b = strconv.AppendFloat(b, bk.LE, 'g', -1, 64)
			}
			b = append(b, "\"} "...)
			b = strconv.AppendUint(b, cum, 10)
			b = append(b, '\n')
		}
		b = append(b, pn...)
		b = append(b, "_sum "...)
		b = strconv.AppendFloat(b, h.Sum, 'g', -1, 64)
		b = append(b, '\n')
		b = append(b, pn...)
		b = append(b, "_count "...)
		b = strconv.AppendUint(b, h.Count, 10)
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
