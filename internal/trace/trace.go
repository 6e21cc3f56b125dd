// Package trace generates the synthetic multi-programmed workloads that
// stand in for the paper's PIN-captured SPEC-CPU2006 and BioBench traces
// (Table IV). Each benchmark is characterised by its main-memory read and
// write intensities (RPKI/WPKI, post-DRAM-cache, exactly what Table IV
// reports), an address-locality model, and a per-write data-change model
// tuned to reproduce the RESET-bit-count distributions of Fig. 9.
//
// Generators are deterministic given a seed, so every experiment is
// reproducible bit-for-bit.
package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Benchmark describes one Table IV workload.
type Benchmark struct {
	Name  string
	Suite string // "SPEC-CPU2006", "BioBench" or "mix"

	RPKI float64 // main-memory reads per kilo-instruction
	WPKI float64 // main-memory writes per kilo-instruction

	FootprintLines uint64  // working set, in 64 B lines
	Sequential     float64 // fraction of accesses that stream sequentially
	ZipfS          float64 // zipf exponent for the non-sequential part

	DirtyBytes   float64 // mean changed bytes per 64 B write
	BitsPerByte  float64 // mean flipped bits per changed byte
	DenseChanges float64 // fraction of writes rewriting most of the line

	// Components lists the member benchmarks of a mixed workload (two
	// cores each, §V); nil for homogeneous workloads.
	Components []string
}

// IsMix reports whether the benchmark is a multi-programmed mix.
func (b Benchmark) IsMix() bool { return len(b.Components) > 0 }

// benchmarks is Table IV. RPKI/WPKI are the paper's numbers; the
// locality and data-change parameters are chosen to reproduce the
// qualitative behaviour the paper reports: lbm streams, mcf chases
// pointers with sparse changes, xalancbmk is the only workload with
// frequent 7-8-bit RESET slices (Fig. 9), and zeusmp rewrites ~30% of a
// line per write (§VI).
var benchmarks = []Benchmark{
	{Name: "ast_m", Suite: "SPEC-CPU2006", RPKI: 2.76, WPKI: 1.34, FootprintLines: 1 << 22, Sequential: 0.1, ZipfS: 1.3, DirtyBytes: 9, BitsPerByte: 1.8},
	{Name: "gem_m", Suite: "SPEC-CPU2006", RPKI: 1.23, WPKI: 1.13, FootprintLines: 1 << 23, Sequential: 0.5, ZipfS: 1.2, DirtyBytes: 14, BitsPerByte: 2.0},
	{Name: "lbm_m", Suite: "SPEC-CPU2006", RPKI: 3.64, WPKI: 1.88, FootprintLines: 1 << 24, Sequential: 0.8, ZipfS: 1.1, DirtyBytes: 20, BitsPerByte: 2.2},
	{Name: "mcf_m", Suite: "SPEC-CPU2006", RPKI: 4.29, WPKI: 3.89, FootprintLines: 1 << 24, Sequential: 0.05, ZipfS: 1.4, DirtyBytes: 8, BitsPerByte: 1.5},
	{Name: "mil_m", Suite: "SPEC-CPU2006", RPKI: 1.69, WPKI: 0.71, FootprintLines: 1 << 23, Sequential: 0.4, ZipfS: 1.2, DirtyBytes: 12, BitsPerByte: 2.0},
	{Name: "xal_m", Suite: "SPEC-CPU2006", RPKI: 1.36, WPKI: 1.22, FootprintLines: 1 << 22, Sequential: 0.2, ZipfS: 1.5, DirtyBytes: 24, BitsPerByte: 3.5, DenseChanges: 0.15},
	{Name: "zeu_m", Suite: "SPEC-CPU2006", RPKI: 0.64, WPKI: 0.47, FootprintLines: 1 << 22, Sequential: 0.5, ZipfS: 1.2, DirtyBytes: 48, BitsPerByte: 4.5},
	{Name: "mum_m", Suite: "BioBench", RPKI: 3.48, WPKI: 1.13, FootprintLines: 1 << 24, Sequential: 0.3, ZipfS: 1.2, DirtyBytes: 10, BitsPerByte: 1.8},
	{Name: "tig_m", Suite: "BioBench", RPKI: 5.07, WPKI: 0.42, FootprintLines: 1 << 23, Sequential: 0.3, ZipfS: 1.3, DirtyBytes: 8, BitsPerByte: 1.7},
	{Name: "mix_1", Suite: "mix", RPKI: 1.57, WPKI: 1.02, Components: []string{"ast_m", "mil_m", "xal_m", "mum_m"}},
	{Name: "mix_2", Suite: "mix", RPKI: 2.31, WPKI: 1.21, Components: []string{"gem_m", "lbm_m", "mcf_m", "zeu_m"}},
}

// Benchmarks returns Table IV in paper order. The slice is a copy.
func Benchmarks() []Benchmark {
	out := make([]Benchmark, len(benchmarks))
	copy(out, benchmarks)
	return out
}

// ByName looks a benchmark up by its Table IV name.
func ByName(name string) (Benchmark, error) {
	for _, b := range benchmarks {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// Kind distinguishes reads from writes.
type Kind uint8

// Access kinds.
const (
	Read Kind = iota
	Write
)

// Access is one main-memory access of one core.
type Access struct {
	Kind     Kind
	Line     uint64 // logical 64 B line address
	InstrGap uint64 // instructions the core retires before this access

	// Old and New are the stored and incoming line images for writes.
	Old, New [64]byte
}

// Generator produces a deterministic access stream for one core running
// one benchmark.
type Generator struct {
	b      Benchmark
	rng    *rand.Rand
	zipf   *rand.Zipf
	cursor uint64 // sequential stream position
	base   uint64 // address offset so cores do not collide
	gap    float64
}

// NewGenerator builds a per-core generator. Mixed benchmarks cannot be
// generated directly — expand them with PerCore first.
func NewGenerator(b Benchmark, seed int64) (*Generator, error) {
	if b.IsMix() {
		return nil, fmt.Errorf("trace: %s is a mix; expand with PerCore", b.Name)
	}
	if b.RPKI+b.WPKI <= 0 || b.FootprintLines == 0 {
		return nil, fmt.Errorf("trace: benchmark %q has no traffic", b.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	return &Generator{
		b:    b,
		rng:  rng,
		zipf: rand.NewZipf(rng, b.ZipfS, 8, b.FootprintLines-1),
		base: rng.Uint64(),
		gap:  1000 / (b.RPKI + b.WPKI),
	}, nil
}

// PerCore expands a benchmark into the per-core assignment of the
// paper's 8-core CMP: homogeneous workloads run 8 copies; mixes run two
// copies of each of their four components.
func PerCore(b Benchmark, cores int) ([]Benchmark, error) {
	out := make([]Benchmark, cores)
	if !b.IsMix() {
		for i := range out {
			out[i] = b
		}
		return out, nil
	}
	if cores%len(b.Components) != 0 {
		return nil, fmt.Errorf("trace: %d cores not divisible by %d mix components", cores, len(b.Components))
	}
	per := cores / len(b.Components)
	for i := range out {
		c, err := ByName(b.Components[i/per])
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// Next overwrites a with the core's next main-memory access. A read
// carries zero data images: a cache writeback it triggers is priced
// from them.
func (g *Generator) Next(a *Access) {
	b := &g.b
	// Exponentially distributed instruction gaps reproduce the Poisson
	// arrival of post-cache misses at the given access rate.
	a.InstrGap = uint64(math.Max(1, g.rng.ExpFloat64()*g.gap))
	a.Kind = Read
	if g.rng.Float64() < b.WPKI/(b.RPKI+b.WPKI) {
		a.Kind = Write
	}

	if g.rng.Float64() < b.Sequential {
		g.cursor++
		a.Line = (g.base + g.cursor) % b.FootprintLines
	} else {
		a.Line = (g.base + g.zipf.Uint64()) % b.FootprintLines
	}

	if a.Kind == Write {
		g.fillData(a)
	} else {
		a.Old, a.New = [64]byte{}, [64]byte{}
	}
}

// intnPow2 is rand.Rand.Intn(n) for a power-of-two n below 2^31: Intn
// reduces such an n to the top bits of one Int63 draw, masked, so the
// stream and every value are Intn's.
func (g *Generator) intnPow2(n int) int {
	return int(g.rng.Int63()>>32) & (n - 1)
}

// fillData synthesizes the old and new line images of a write according
// to the benchmark's change model.
func (g *Generator) fillData(a *Access) {
	b := &g.b
	g.rng.Read(a.Old[:])
	a.New = a.Old

	dirty := g.poissonish(b.DirtyBytes)
	dense := b.DenseChanges > 0 && g.rng.Float64() < b.DenseChanges
	if dense {
		dirty = 48 + g.rng.Intn(17) // near-full-line rewrite (xalancbmk)
	}
	if dirty > 64 {
		dirty = 64
	}
	if dirty < 1 {
		dirty = 1
	}
	// Dirty bytes cluster in a contiguous region (distinct indices).
	start := g.intnPow2(64)
	for i := 0; i < dirty; i++ {
		idx := (start + i) % 64
		if dense {
			// Dense rewrites replace whole bytes, the pattern that
			// produces Fig. 9's rare 7-8-bit RESET slices for xalancbmk.
			a.New[idx] = byte(g.intnPow2(256))
			continue
		}
		a.New[idx] ^= g.flipMask(b.BitsPerByte)
	}
}

// poissonish draws a small non-negative count with the given mean
// (geometric tail keeps the occasional heavy write).
func (g *Generator) poissonish(mean float64) int {
	if mean <= 0 {
		return 0
	}
	return int(g.rng.ExpFloat64() * mean)
}

// flipMask picks a byte-sized change mask with about mean bits set.
func (g *Generator) flipMask(mean float64) byte {
	n := 1 + int(g.rng.ExpFloat64()*(mean-1)+0.5)
	if n > 8 {
		n = 8
	}
	var m byte
	for i := 0; i < n; i++ {
		m |= 1 << g.intnPow2(8)
	}
	if m == 0 {
		m = 1
	}
	return m
}
