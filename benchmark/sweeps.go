package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reramsim/internal/experiments"
	"reramsim/internal/memsys"
	"reramsim/internal/trace"
	"reramsim/internal/xpoint"
)

// Grid G is the BenchmarkSweepParallel grid: the paper's three headline
// schemes on four Table IV workloads.
var (
	gridSchemes   = []string{"Base", "Hard+Sys", "UDRVR+PR"}
	gridWorkloads = []string{"ast_m", "mcf_m", "mil_m", "zeu_m"}
)

func gridCells() []experiments.SimPair {
	var cells []experiments.SimPair
	for _, s := range gridSchemes {
		for _, w := range gridWorkloads {
			cells = append(cells, experiments.SimPair{Scheme: s, Workload: w})
		}
	}
	return cells
}

func cellKey(c experiments.SimPair) string { return c.Scheme + "/" + c.Workload }

// sweepSpec is what distinguishes the three CLI sweep workloads.
type sweepSpec struct {
	accesses int
	profile  string // -fault-profile
	warm     bool   // measure against a solve cache filled during set-up
}

// sweep measures one reramsim sweep workload. Each set-up step of a warm
// sweep fills a fresh solve cache with the measured arguments; otherwise
// it is a one-cell start-up probe. Then whole sweeps run back to back for
// the measured window. Cache fills are checked like samples.
func (b *bench) sweep(ctx context.Context, name string, sp sweepSpec) (*section, error) {
	sim := filepath.Join(b.bin, "reramsim")
	common := []string{"-jobs", strconv.Itoa(b.jobs), "-json", "-seed", strconv.FormatInt(b.seed, 10), "-fault-profile", sp.profile}
	args := append([]string{
		"-scheme", strings.Join(gridSchemes, ","), "-workload", strings.Join(gridWorkloads, ","),
		"-accesses", strconv.Itoa(sp.accesses),
	}, common...)
	startup := append([]string{"-scheme", "Base", "-workload", "mcf_m", "-accesses", "100"}, common...)

	expect, err := b.reference(ctx, sp.accesses, b.seed, sp.profile)
	if err != nil {
		return nil, err
	}

	var runs []proc // every run whose output is checked: cache fills, then samples
	var cache string
	br := &bracket{threads: b.jobs}
	setups, err := b.repeatSetup(ctx, br, func(i int) (time.Duration, error) {
		if !sp.warm {
			p := runProc(ctx, sim, startup...)
			return p.wall, p.err
		}
		cache = filepath.Join(b.scratch, fmt.Sprintf("%s-cache-%d", name, i))
		p := runProc(ctx, sim, slices.Concat(args, []string{"-solve-cache", cache})...)
		runs = append(runs, p)
		return p.wall, p.err
	})
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	if sp.warm {
		args = append(args, "-solve-cache", cache) // the last cache filled
	}

	fills := len(runs)
	var samples []timing
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < b.window; n++ {
		var p proc
		t, _ := br.time(func() (time.Duration, error) {
			p = runProc(ctx, sim, args...)
			return p.wall, nil // p.err is checked with the output below
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runs = append(runs, p)
		samples = append(samples, t)
	}

	sec := &section{Name: name, Samples: len(samples)}
	var canon []byte
	for _, p := range runs {
		if p.err == nil {
			canon = p.out
			break
		}
	}
	canonErr := checkSweep(canon, expect, sp.profile != "none")
	var lat []timing
	var rss []float64
	for i, p := range runs {
		err := p.err
		if err == nil && !bytes.Equal(p.out, canon) {
			err = errors.New("sweep output differs from the first run's")
		}
		if err == nil {
			err = canonErr
		}
		sec.tally.record(err)
		if i >= fills && err == nil {
			lat = append(lat, samples[i-fills])
			rss = append(rss, float64(p.rssKB)/1024)
		}
	}
	sec.addE2E(lat, len(lat)*len(expect), samples, setups, rss)
	return sec, nil
}

// checkSweep validates one reramsim -json sweep document: every cell of
// G is present and equals the in-process reference, and the paper's
// orderings hold.
func checkSweep(out []byte, expect map[string][32]byte, faults bool) error {
	if out == nil {
		return errors.New("no sweep exited 0")
	}
	var doc struct {
		Cells []struct {
			Scheme, Workload string
			Result           json.RawMessage
		}
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		return fmt.Errorf("decoding sweep output: %w", err)
	}
	if len(doc.Cells) != len(expect) {
		return fmt.Errorf("sweep printed %d cells, want %d", len(doc.Cells), len(expect))
	}
	results := make(map[string]*memsys.Result, len(doc.Cells))
	for _, c := range doc.Cells {
		key := c.Scheme + "/" + c.Workload
		r, err := checkCell(key, c.Result, expect)
		if err != nil {
			return err
		}
		results[key] = r
	}
	return checkOrderings(results, gridWorkloads, faults)
}

// checkCell compares one printed cell result with its reference digest.
// The printed JSON may be indented; the digest is over the compact form.
func checkCell(key string, raw json.RawMessage, expect map[string][32]byte) (*memsys.Result, error) {
	want, ok := expect[key]
	if !ok {
		return nil, fmt.Errorf("unexpected cell %s", key)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return nil, fmt.Errorf("cell %s: %w", key, err)
	}
	if sha256.Sum256(compact.Bytes()) != want {
		return nil, fmt.Errorf("cell %s differs from the in-process memsys.Simulate result", key)
	}
	var r memsys.Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("cell %s: %w", key, err)
	}
	return &r, nil
}

// checkOrderings asserts the paper's result on every workload whose three
// headline cells are present: IPC rises Base < Hard+Sys < UDRVR+PR, and
// with faults injected Base needs more write-verify retries than UDRVR+PR.
func checkOrderings(results map[string]*memsys.Result, workloads []string, faults bool) error {
	for _, w := range workloads {
		base, hs, ud := results["Base/"+w], results["Hard+Sys/"+w], results["UDRVR+PR/"+w]
		if base == nil || hs == nil || ud == nil {
			continue
		}
		if !(base.IPC < hs.IPC && hs.IPC < ud.IPC) {
			return fmt.Errorf("%s: IPC not ordered Base < Hard+Sys < UDRVR+PR (%g, %g, %g)", w, base.IPC, hs.IPC, ud.IPC)
		}
		if faults {
			if base.Reliability == nil || ud.Reliability == nil {
				return fmt.Errorf("%s: fault run without a reliability report", w)
			}
			if base.Reliability.WriteRetries <= ud.Reliability.WriteRetries {
				return fmt.Errorf("%s: Base write retries %d not above UDRVR+PR's %d",
					w, base.Reliability.WriteRetries, ud.Reliability.WriteRetries)
			}
		}
	}
	return nil
}

// calibrated is the suite's array configuration: the default MAT with
// Eq. 1 fitted, exactly as experiments.NewSuite calibrates it.
var calibrated = sync.OnceValues(func() (xpoint.Config, error) {
	cfg := xpoint.DefaultConfig()
	p, err := xpoint.CalibrateLatency(cfg, xpoint.BestCaseLatency, xpoint.WorstCaseLatency)
	cfg.Params = p
	return cfg, err
})

// memConfig is the memory system reramsim and reramd simulate.
func memConfig(accesses int, seed int64, profile string) memsys.Config {
	mc := memsys.DefaultConfig()
	mc.AccessesPerCore = accesses
	mc.Seed = seed
	mc.FaultProfile = profile
	return mc
}

// newSuite returns a fresh suite (no schemes built, nothing cached) on
// the calibrated configuration, without calibrating again.
func newSuite(mem memsys.Config) (*experiments.Suite, error) {
	cfg, err := calibrated()
	if err != nil {
		return nil, err
	}
	return experiments.NewWorkerSuite(cfg, mem, "")
}

// reference simulates G in-process and returns the SHA-256 of each cell's
// JSON-encoded memsys.Result: the bytes reramsim prints per cell.
func (b *bench) reference(ctx context.Context, accesses int, seed int64, profile string) (map[string][32]byte, error) {
	suite, err := newSuite(memConfig(accesses, seed, profile))
	if err != nil {
		return nil, err
	}
	results, err := simulate(ctx, suite, gridCells(), b.jobs)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	expect := make(map[string][32]byte, len(results))
	for key, r := range results {
		blob, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		expect[key] = sha256.Sum256(blob)
	}
	if b.expect != nil {
		b.expect(expect)
	}
	return expect, nil
}

// simulate runs memsys.Simulate for each cell on `workers` goroutines.
func simulate(ctx context.Context, suite *experiments.Suite, cells []experiments.SimPair, workers int) (map[string]*memsys.Result, error) {
	results := make([]*memsys.Result, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cells) && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
				results[i], errs[i] = simulateCell(suite, cells[i])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make(map[string]*memsys.Result, len(cells))
	for i, c := range cells {
		out[cellKey(c)] = results[i]
	}
	return out, nil
}

// simulateCell is one cell as the library computes it: the suite's
// scheme, the Table IV workload and the suite's memory configuration.
func simulateCell(suite *experiments.Suite, c experiments.SimPair) (*memsys.Result, error) {
	sc, err := suite.Scheme(c.Scheme)
	if err != nil {
		return nil, err
	}
	bm, err := trace.ByName(c.Workload)
	if err != nil {
		return nil, err
	}
	return memsys.Simulate(sc, bm, suite.MemCfg)
}
