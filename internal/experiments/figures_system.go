package experiments

import (
	"fmt"
	"math/bits"

	"reramsim/internal/device"
	"reramsim/internal/energy"
	"reramsim/internal/stats"
	"reramsim/internal/trace"
	"reramsim/internal/wear"
	"reramsim/internal/write"
	"reramsim/internal/xpoint"
)

// Fig5b tabulates the main-memory lifetime comparison.
func (s *Suite) Fig5b() (string, error) {
	t := stats.NewTable("Fig. 5b: 64 GB main-memory lifetime under worst-case non-stop writes",
		"scheme", "lifetime", "wear-leveling ok")
	p := wear.DefaultLifetimeParams()
	for _, name := range []string{"Base", "Hard+Sys", "Static-3.70V", "DRVR", "DRVR+PR", "UDRVR+PR"} {
		sc, err := s.Scheme(name)
		if err != nil {
			return "", err
		}
		years, err := wear.Lifetime(sc, p)
		if err != nil {
			return "", err
		}
		t.AddF(name, formatYears(years), fmt.Sprintf("%v", sc.WearLevelingCompatible()))
	}
	return t.String(), nil
}

func formatYears(y float64) string {
	switch {
	case y >= 1:
		return fmt.Sprintf("%.1f years", y)
	case y >= 1.0/365.25:
		return fmt.Sprintf("%.1f days", y*365.25)
	default:
		return fmt.Sprintf("%.1f hours", y*365.25*24)
	}
}

// speedupRows runs schemes x workloads and returns IPC normalised to the
// reference scheme, one row per workload plus a geometric-mean row. The
// grid is primed in parallel first; the formatting loop below then reads
// cache hits, so the table is identical at any -jobs setting.
func (s *Suite) speedupRows(title, ref string, schemes []string) (string, error) {
	if err := s.PrimeSims(crossPairs(append([]string{ref}, schemes...), Workloads())); err != nil {
		return "", err
	}
	t := stats.NewTable(title, append([]string{"workload"}, schemes...)...)
	gmeans := make([][]float64, len(schemes))
	for _, w := range Workloads() {
		base, err := s.Sim(ref, w)
		if err != nil {
			return "", err
		}
		row := []any{w}
		for i, name := range schemes {
			r, err := s.Sim(name, w)
			if err != nil {
				return "", err
			}
			sp := r.Speedup(base)
			gmeans[i] = append(gmeans[i], sp)
			row = append(row, fmt.Sprintf("%.3f", sp))
		}
		t.AddF(row...)
	}
	row := []any{"gmean"}
	for i := range schemes {
		row = append(row, fmt.Sprintf("%.3f", stats.GeoMean(gmeans[i])))
	}
	t.AddF(row...)
	return t.String(), nil
}

// Fig5c compares the prior designs against the oracle configurations,
// normalised to ora-64x64.
func (s *Suite) Fig5c() (string, error) {
	return s.speedupRows(
		"Fig. 5c: performance of prior designs (normalized to ora-64x64)",
		"ora-64x64",
		[]string{"Hard", "Hard+Sys", "ora-256x256", "ora-128x128"})
}

// Fig5d tabulates the chip area and power overheads of the techniques.
func (s *Suite) Fig5d() (string, error) {
	t := stats.NewTable("Fig. 5d: hardware overhead (normalized to the baseline chip)",
		"technique", "area", "leakage")
	rows := []struct {
		name string
		o    energy.Overhead
	}{
		{"DSGB", energy.OverheadDSGB},
		{"DSWD", energy.OverheadDSWD},
		{"D-BL", energy.OverheadDBL},
	}
	for _, r := range rows {
		t.AddF(r.name, fmt.Sprintf("%.2f", 1+r.o.Area), fmt.Sprintf("%.2f", 1+r.o.Leakage))
	}
	for _, name := range []string{"Hard", "Hard+Sys", "UDRVR+PR"} {
		sc, err := s.Scheme(name)
		if err != nil {
			return "", err
		}
		o := energy.ForScheme(sc)
		t.AddF(name, fmt.Sprintf("%.2f", o.Area), fmt.Sprintf("%.2f", o.Leakage))
	}
	return t.String(), nil
}

// Fig9 tabulates the RESET-bit count distribution of 64 B writes per
// 8-bit array slice for every workload.
func (s *Suite) Fig9() (string, error) {
	t := stats.NewTable("Fig. 9: RESET bit count of 64B writes in 8-bit arrays (fraction of slices)",
		"workload", "0", "1", "2", "3", "4", "5", "6", "7", "8")
	for _, name := range Workloads() {
		b, err := trace.ByName(name)
		if err != nil {
			return "", err
		}
		if b.IsMix() {
			continue
		}
		g, err := trace.NewGenerator(b, s.MemCfg.Seed)
		if err != nil {
			return "", err
		}
		var counts [9]uint64
		var total uint64
		for w := 0; w < 3000; {
			a := g.Next()
			if a.Kind != trace.Write {
				continue
			}
			w++
			lw, _, err := write.FlipNWrite(a.Old[:], a.New[:])
			if err != nil {
				return "", err
			}
			for _, aw := range lw.Arrays {
				counts[bits.OnesCount8(aw.Reset)]++
				total++
			}
		}
		row := []any{name}
		for _, c := range counts {
			row = append(row, fmt.Sprintf("%.4f", float64(c)/float64(total)))
		}
		t.AddF(row...)
	}
	return t.String(), nil
}

// Fig14 tabulates the extra writes caused by PR and D-BL over the
// Flip-N-Write baseline.
func (s *Suite) Fig14() (string, error) {
	t := stats.NewTable("Fig. 14: extra writes caused by PR and D-BL (per 64B write)",
		"workload", "base cells %", "PR resets +%", "PR sets +%", "PR cells %", "D-BL resets +%")
	for _, name := range Workloads() {
		b, err := trace.ByName(name)
		if err != nil {
			return "", err
		}
		if b.IsMix() {
			continue
		}
		g, err := trace.NewGenerator(b, s.MemCfg.Seed)
		if err != nil {
			return "", err
		}
		var baseR, baseS, prR, prS, dblR float64
		const writes = 3000
		for w := 0; w < writes; {
			a := g.Next()
			if a.Kind != trace.Write {
				continue
			}
			w++
			lw, _, err := write.FlipNWrite(a.Old[:], a.New[:])
			if err != nil {
				return "", err
			}
			for _, aw := range lw.Arrays {
				r, st := aw.Count()
				baseR += float64(r)
				baseS += float64(st)
				pr := write.PartitionReset(aw)
				r2, s2 := pr.Count()
				prR += float64(r2)
				prS += float64(s2)
				_, dummies := write.DummyBL(aw)
				dblR += float64(r + bits.OnesCount8(dummies))
			}
		}
		cells := float64(writes) * 512
		t.AddF(name,
			fmt.Sprintf("%.1f", 100*(baseR+baseS)/cells),
			fmt.Sprintf("%.0f", 100*(prR-baseR)/baseR),
			fmt.Sprintf("%.0f", 100*(prS-baseS)/baseS),
			fmt.Sprintf("%.1f", 100*(prR+prS)/cells),
			fmt.Sprintf("%.0f", 100*(dblR-baseR)/baseR),
		)
	}
	return t.String(), nil
}

// Fig15 is the headline performance comparison, normalised to ora-64x64.
func (s *Suite) Fig15() (string, error) {
	return s.speedupRows(
		"Fig. 15: overall performance (normalized to ora-64x64)",
		"ora-64x64",
		[]string{"Hard", "Hard+Sys", "DRVR", "UDRVR+PR", "ora-256x256", "ora-128x128"})
}

// Fig16 compares main-memory energy, normalised to Hard+Sys.
func (s *Suite) Fig16() (string, error) {
	if err := s.PrimeSims(crossPairs(
		[]string{"Hard+Sys", "Base", "DRVR", "UDRVR+PR"}, Workloads())); err != nil {
		return "", err
	}
	t := stats.NewTable("Fig. 16: main-memory energy (normalized to Hard+Sys)",
		"workload", "Base", "DRVR", "UDRVR+PR", "UDRVR+PR read/write/leak split")
	var ratios []float64
	for _, w := range Workloads() {
		ref, err := s.Sim("Hard+Sys", w)
		if err != nil {
			return "", err
		}
		row := []any{w}
		for _, name := range []string{"Base", "DRVR", "UDRVR+PR"} {
			r, err := s.Sim(name, w)
			if err != nil {
				return "", err
			}
			ratio := r.Energy.Total() / ref.Energy.Total()
			if name == "UDRVR+PR" {
				ratios = append(ratios, ratio)
				e := r.Energy
				row = append(row, fmt.Sprintf("%.3f", ratio),
					fmt.Sprintf("%.0f/%.0f/%.0f%%",
						100*e.Read/e.Total(), 100*e.Write/e.Total(),
						100*(e.Leakage+e.Pump)/e.Total()))
			} else {
				row = append(row, fmt.Sprintf("%.3f", ratio))
			}
		}
		t.AddF(row...)
	}
	t.AddF("mean UDRVR+PR", "", "", fmt.Sprintf("%.3f", stats.Mean(ratios)), "")
	return t.String(), nil
}

// Fig17 compares UDRVR-3.94 against UDRVR+PR, normalised to Hard+Sys.
// Besides performance it reports the energy ratio: the 3.94 V pump's
// extra stage and conversion losses are the configuration's real cost
// (see EXPERIMENTS.md for the deviation discussion).
func (s *Suite) Fig17() (string, error) {
	perf, err := s.speedupRows(
		"Fig. 17: UDRVR with a 3.94V pump vs UDRVR+PR (normalized to Hard+Sys)",
		"Hard+Sys",
		[]string{"UDRVR-3.94", "UDRVR+PR"})
	if err != nil {
		return "", err
	}
	t := stats.NewTable("Fig. 17 (cont.): energy of UDRVR-3.94 relative to UDRVR+PR",
		"workload", "energy ratio")
	var ratios []float64
	for _, w := range Workloads() {
		hi, err := s.Sim("UDRVR-3.94", w)
		if err != nil {
			return "", err
		}
		pr, err := s.Sim("UDRVR+PR", w)
		if err != nil {
			return "", err
		}
		r := hi.Energy.Total() / pr.Energy.Total()
		ratios = append(ratios, r)
		t.AddF(w, fmt.Sprintf("%.3f", r))
	}
	t.AddF("mean", fmt.Sprintf("%.3f", stats.Mean(ratios)))
	return perf + t.String(), nil
}

// sweepRow is one row of a Fig. 18-20 sweep: the suite's
// calibrated array config with one parameter changed.
type sweepRow struct {
	label string
	mod   func(*xpoint.Config)
}

// sweepConfig applies mod to a copy of the suite's calibrated array
// config. The Eq. 1 constants stay as fitted on the default array, as
// in the paper: device constants are fitted once and held fixed while
// geometry or selector parameters vary.
func (s *Suite) sweepConfig(mod func(*xpoint.Config)) (xpoint.Config, error) {
	cfg := s.Cfg
	mod(&cfg)
	return cfg, cfg.Validate()
}

// sweep runs UDRVR+PR vs Hard+Sys across configuration variants and
// reports the geometric-mean speedup per variant. The cells of every
// variant run as one grid before the serial rendering loop reads them
// back from the cache; a variant equal to the suite's own config reuses
// the cells other figures already ran.
func (s *Suite) sweep(title string, variants []sweepRow) (string, error) {
	pairs := crossPairs([]string{"Hard+Sys", "UDRVR+PR"}, Workloads())
	mem := s.MemCfg
	cfgs := make([]xpoint.Config, len(variants))
	var cs []cell
	for i, v := range variants {
		cfg, err := s.sweepConfig(v.mod)
		if err != nil {
			return "", fmt.Errorf("experiments: %s: %w", v.label, err)
		}
		cfgs[i] = cfg
		cs = append(cs, cells(cfg, mem, pairs)...)
	}
	ctx := s.Context()
	if err := s.grid(ctx, cs); err != nil {
		return "", err
	}

	t := stats.NewTable(title, "variant", "UDRVR+PR vs Hard+Sys (gmean)", "worst write rst (ns)")
	for i, v := range variants {
		var sps []float64
		for _, w := range Workloads() {
			ref, err := s.sim(ctx, cell{cfgs[i], mem, "Hard+Sys", w})
			if err != nil {
				return "", err
			}
			r, err := s.sim(ctx, cell{cfgs[i], mem, "UDRVR+PR", w})
			if err != nil {
				return "", err
			}
			sps = append(sps, r.Speedup(ref))
		}
		up, err := s.scheme(cfgs[i], "UDRVR+PR")
		if err != nil {
			return "", err
		}
		wc, err := up.WorstWriteCost()
		if err != nil {
			return "", err
		}
		t.AddF(v.label, fmt.Sprintf("%.3f", stats.GeoMean(sps)), fmt.Sprintf("%.0f", wc.ResetLatency*1e9))
	}
	return t.String(), nil
}

// Fig18 sweeps the MAT size.
func (s *Suite) Fig18() (string, error) {
	return s.sweep("Fig. 18: UDRVR+PR on various array sizes (vs Hard+Sys)",
		[]sweepRow{
			{"256x256", func(c *xpoint.Config) { c.Size = 256 }},
			{"512x512", func(c *xpoint.Config) { c.Size = 512 }},
			{"1024x1024", func(c *xpoint.Config) { c.Size = 1024 }},
		})
}

// Fig19 sweeps the wire resistance (technology node).
func (s *Suite) Fig19() (string, error) {
	return s.sweep("Fig. 19: UDRVR+PR with various wire resistances (vs Hard+Sys)",
		[]sweepRow{
			{"32nm", func(c *xpoint.Config) { c.Rwire = device.WireResistance(device.Node32nm) }},
			{"20nm", func(c *xpoint.Config) { c.Rwire = device.WireResistance(device.Node20nm) }},
			{"10nm", func(c *xpoint.Config) { c.Rwire = device.WireResistance(device.Node10nm) }},
		})
}

// Fig20 sweeps the access-device ON/OFF ratio.
func (s *Suite) Fig20() (string, error) {
	return s.sweep("Fig. 20: UDRVR+PR with various access-device ON/OFF ratios (vs Hard+Sys)",
		[]sweepRow{
			{"0.5K", func(c *xpoint.Config) { c.Params.Kr = 500 }},
			{"1K", func(c *xpoint.Config) { c.Params.Kr = 1000 }},
			{"2K", func(c *xpoint.Config) { c.Params.Kr = 2000 }},
		})
}

// TableIII echoes the baseline system configuration.
func (s *Suite) TableIII() (string, error) {
	mc := s.MemCfg
	t := stats.NewTable("Table III: baseline configuration", "component", "setting")
	t.AddF("CPU", fmt.Sprintf("%d cores @ %.1f GHz, peak IPC %.1f/core", mc.Cores, mc.FreqHz/1e9, mc.CoreIPC))
	t.AddF("Main memory", fmt.Sprintf("64 GB, %d ranks x %d banks, 64B lines, %dx%d arrays",
		mc.Ranks, mc.BanksPerRank, s.Cfg.Size, s.Cfg.Size))
	t.AddF("Memory controller", fmt.Sprintf("%d-entry R/W queues, read-first, write bursts on full queue", mc.ReadQueue))
	t.AddF("Read", fmt.Sprintf("bank %.0f ns, bus %.1f ns, MC %.0f ns, %.1f nJ/line",
		mc.ReadBankTime*1e9, mc.BusTime*1e9, mc.MCOverhead*1e9, energy.ReadEnergyPerLine*1e9))
	sc, err := s.Scheme("Base")
	if err != nil {
		return "", err
	}
	pump := sc.Pump()
	t.AddF("Charge pump", fmt.Sprintf("%d stage(s), %.2f V out, %.0f/%.0f mA, %.0f%% efficiency, %.0f ns charge",
		pump.Stages, pump.Vout, pump.IResetMax*1e3, pump.ISetMax*1e3, pump.Efficiency*100, pump.ChargeLatency*1e9))
	t.AddF("Write", fmt.Sprintf("RESET %.0fV %.0fuA/bit (latency/energy vary with drop); SET %.0fV %.1fuA, %.1fpJ/bit",
		s.Cfg.Params.Vrst, s.Cfg.Params.Ion*1e6, s.Cfg.Params.Vset, 98.6, 29.8))
	return t.String(), nil
}

// TableIV echoes the simulated benchmarks.
func (s *Suite) TableIV() (string, error) {
	t := stats.NewTable("Table IV: simulated benchmarks", "name", "suite", "RPKI", "WPKI", "components")
	for _, b := range trace.Benchmarks() {
		comp := ""
		if b.IsMix() {
			comp = fmt.Sprint(b.Components)
		}
		t.AddF(b.Name, b.Suite, b.RPKI, b.WPKI, comp)
	}
	return t.String(), nil
}
