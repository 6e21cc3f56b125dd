package memsys

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"reramsim/internal/obs"
	"reramsim/internal/trace"
	"reramsim/internal/write"
)

// Trace is one workload's access stream, recorded once so that many
// simulations can replay it. A core's stream depends only on the
// workload, Cores, Seed and AccessesPerCore (newGenerators), never on the
// scheme or on the timing of a run, so every simulation of the workload
// under a config that shares those four values draws exactly this
// stream. A Trace is immutable once recorded and safe for concurrent
// replays.
type Trace struct {
	workload string
	seed     int64
	accesses int
	cores    []coreTrace
}

// coreTrace is one core's recorded stream in compact form.
type coreTrace struct {
	acc   []uint64           // one word per access: gap<<(lineBits+1) | line<<1 | kind
	masks []uint64           // one per write: bit j set when array j changes
	vecs  []write.ArrayWrite // each write's changed arrays, in array order
}

// An access word holds its kind in bit 0, its line in the next lineBits
// bits and its instruction gap in the remaining gapBits. Table IV's
// footprints reach 2^24 lines and its gaps stay below 2^16 instructions.
const (
	lineBits = 40
	gapBits  = 64 - 1 - lineBits
	lineMask = 1<<lineBits - 1
)

// RecordTrace draws the access stream a simulation of bench under cfg
// would draw, with each write's Flip-N-Write vectors in place of its
// data images, under a memsys.trace:<workload> span. ctx stops the
// recording; a stopped recording returns no trace.
func RecordTrace(ctx context.Context, bench trace.Benchmark, cfg Config) (*Trace, error) {
	if obs.SpansEnabled() {
		var stop func()
		ctx, stop = obs.StartSpan(ctx, "memsys.trace:"+bench.Name)
		defer stop()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gens, err := newGenerators(bench, cfg)
	if err != nil {
		return nil, err
	}
	t := &Trace{
		workload: bench.Name,
		seed:     cfg.Seed,
		accesses: cfg.AccessesPerCore,
		cores:    make([]coreTrace, cfg.Cores),
	}
	var (
		a     trace.Access
		lw    write.LineWrite
		masks []uint64
		vecs  []write.ArrayWrite
	)
	for i, g := range gens {
		ct := &t.cores[i]
		ct.acc = make([]uint64, cfg.AccessesPerCore)
		masks, vecs = masks[:0], vecs[:0]
		for k := range ct.acc {
			if k%stopPollEvery == 0 && ctx.Err() != nil {
				return nil, fmt.Errorf("memsys: recording %s stopped: %w", bench.Name, context.Cause(ctx))
			}
			g.Next(&a)
			if a.Line > lineMask || a.InstrGap >= 1<<gapBits {
				return nil, fmt.Errorf("memsys: %s access (line %d, gap %d) exceeds the trace's %d-bit line or %d-bit gap",
					bench.Name, a.Line, a.InstrGap, lineBits, gapBits)
			}
			ct.acc[k] = a.InstrGap<<(lineBits+1) | a.Line<<1 | uint64(a.Kind)
			if a.Kind != trace.Write {
				continue
			}
			write.FlipNWrite(&lw, &a.Old, &a.New)
			var m uint64
			for j, aw := range &lw.Arrays {
				if aw != (write.ArrayWrite{}) {
					m |= 1 << j
					vecs = append(vecs, aw)
				}
			}
			masks = append(masks, m)
		}
		ct.masks, ct.vecs = slices.Clone(masks), slices.Clone(vecs)
	}
	return t, nil
}

// match reports whether cfg draws the recorded stream.
func (t *Trace) match(cfg Config) error {
	if len(t.cores) != cfg.Cores || t.seed != cfg.Seed || t.accesses != cfg.AccessesPerCore {
		return fmt.Errorf("memsys: %s trace of %d cores, seed %d, %d accesses per core replayed under %d cores, seed %d, %d accesses per core",
			t.workload, len(t.cores), t.seed, t.accesses, cfg.Cores, cfg.Seed, cfg.AccessesPerCore)
	}
	return nil
}

// newGenerators builds each core's generator: core i runs its
// trace.PerCore benchmark from seed cfg.Seed + 7919·i and draws one
// access per access the core issues, at most AccessesPerCore.
func newGenerators(bench trace.Benchmark, cfg Config) ([]*trace.Generator, error) {
	perCore, err := trace.PerCore(bench, cfg.Cores)
	if err != nil {
		return nil, err
	}
	gens := make([]*trace.Generator, cfg.Cores)
	for i := range gens {
		if gens[i], err = trace.NewGenerator(perCore[i], cfg.Seed+int64(i)*7919); err != nil {
			return nil, err
		}
	}
	return gens, nil
}

// access is a core's pending access as the event loop reads it: a
// trace.Access with a write's data images reduced to the Flip-N-Write
// vectors they price as.
type access struct {
	kind trace.Kind
	line uint64
	gap  uint64
	lw   write.LineWrite // a write's vectors; left over from an earlier write for a read
}

// source is one core's access stream: replayed from a recorded trace,
// or drawn live from the core's generator.
type source struct {
	rec                 *coreTrace
	next, write, vecPos int // replay positions in rec.acc, rec.masks and rec.vecs

	gen  *trace.Generator
	draw trace.Access // the generator's scratch access
}

// fill overwrites a with the core's next access. A replayed access
// carries what the live draw computes: its kind, line and gap, and for
// a write FlipNWrite(old, new) of its images. The flip flags are not
// recorded; pricing reads only the arrays.
func (src *source) fill(a *access) {
	if src.gen != nil {
		d := &src.draw
		src.gen.Next(d)
		a.kind, a.line, a.gap = d.Kind, d.Line, d.InstrGap
		if d.Kind == trace.Write {
			write.FlipNWrite(&a.lw, &d.Old, &d.New)
		}
		return
	}
	r := src.rec
	w := r.acc[src.next]
	src.next++
	a.kind, a.line, a.gap = trace.Kind(w&1), w>>1&lineMask, w>>(lineBits+1)
	if a.kind != trace.Write {
		return
	}
	m := r.masks[src.write]
	src.write++
	a.lw.Arrays = [write.LineBytes]write.ArrayWrite{}
	for ; m != 0; m &= m - 1 {
		a.lw.Arrays[bits.TrailingZeros64(m)] = r.vecs[src.vecPos]
		src.vecPos++
	}
}
