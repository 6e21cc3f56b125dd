package experiments

import (
	"fmt"
	"math"
	"strings"

	"reramsim/internal/core"
	"reramsim/internal/device"
	"reramsim/internal/stats"
	"reramsim/internal/xpoint"
)

// MapBlocks is the sampling granularity of the surface figures, matching
// the paper's 64x64-cell blocks on a 512x512 array.
const MapBlocks = 8

// TableI prints the cell / array / bank model constants.
func (s *Suite) TableI() (string, error) {
	p := s.Cfg.Params
	t := stats.NewTable("Table I: ReRAM cell, CP array and bank models",
		"metric", "description", "value")
	t.AddF("Ion", "LRS cell current during RESET", fmt.Sprintf("%.0fuA", p.Ion*1e6))
	t.AddF("Kr", "nonlinear selectivity of the selector", p.Kr)
	t.AddF("A", "mat size: A WLs x A BLs", s.Cfg.Size)
	t.AddF("n", "bits to read/write", s.Cfg.DataWidth)
	t.AddF("Rwire", "wire resistance between adjacent cells", fmt.Sprintf("%.1f ohm", s.Cfg.Rwire))
	t.AddF("Vrst/Vset", "full selected voltage during RESETs/SETs", fmt.Sprintf("%.0fV", p.Vrst))
	t.AddF("Vrd", "read voltage", fmt.Sprintf("%.1fV", p.Vread))
	t.AddF("K (fitted)", "Eq.1 slope, calibrated per DESIGN.md", fmt.Sprintf("%.3f /V", p.K))
	t.AddF("T0 (fitted)", "Eq.2 time constant", fmt.Sprintf("%.3g s", p.T0))
	return t.String(), nil
}

// Fig1e prints the per-junction wire resistance versus technology node.
func (s *Suite) Fig1e() (string, error) {
	t := stats.NewTable("Fig. 1e: Rwire per junction vs technology node",
		"node", "Rwire (ohm)")
	for _, n := range device.Nodes() {
		t.AddF(n.String(), device.WireResistance(n))
	}
	return t.String(), nil
}

// schemeMaps renders the effective-Vrst, latency and endurance surfaces
// of a scheme (the Fig. 4/6/11/13 triptychs). Sampling follows the
// suite's cancellation context, so an interrupted run aborts mid-map
// instead of solving the remaining blocks.
func (s *Suite) schemeMaps(scheme string, withEff, withLat, withEnd bool) (string, error) {
	sc, err := s.Scheme(scheme)
	if err != nil {
		return "", err
	}
	ctx := s.Context()
	var b strings.Builder
	if withEff {
		m, err := sc.EffectiveVrstMap(ctx, MapBlocks)
		if err != nil {
			return "", err
		}
		b.WriteString(stats.Grid(
			fmt.Sprintf("%s effective Vrst (V); rows bottom-up = distance from write driver", scheme),
			m.Values, func(v float64) string { return fmt.Sprintf("%.3f", v) }))
	}
	if withLat {
		m, err := sc.LatencyMap(ctx, MapBlocks)
		if err != nil {
			return "", err
		}
		b.WriteString(stats.Grid(
			fmt.Sprintf("%s RESET latency (ns)", scheme),
			m.Values, func(v float64) string {
				if math.IsInf(v, 1) {
					return "fail"
				}
				return fmt.Sprintf("%.1f", v*1e9)
			}))
	}
	if withEnd {
		m, err := sc.EnduranceMap(ctx, MapBlocks)
		if err != nil {
			return "", err
		}
		b.WriteString(stats.Grid(
			fmt.Sprintf("%s cell endurance (writes)", scheme),
			m.Values, func(v float64) string { return fmt.Sprintf("%.2g", v) }))
	}
	return b.String(), nil
}

// Fig4 renders the baseline effective-Vrst / latency / endurance maps
// (Fig. 4b-d).
func (s *Suite) Fig4() (string, error) {
	return s.schemeMaps("Base", true, true, true)
}

// Fig6 renders the static 3.7 V over-RESET endurance map (Fig. 6a) and
// the DRVR maps (Fig. 6b-d).
func (s *Suite) Fig6() (string, error) {
	over, err := s.schemeMaps("Static-3.70V", false, false, true)
	if err != nil {
		return "", err
	}
	drvr, err := s.schemeMaps("DRVR", true, true, true)
	if err != nil {
		return "", err
	}
	return over + drvr, nil
}

// Fig7b tabulates the effective Vrst along the left-most bit-line with
// and without DRVR: the staircase of eight sections.
func (s *Suite) Fig7b() (string, error) {
	base, err := s.Scheme("Base")
	if err != nil {
		return "", err
	}
	drvr, err := s.Scheme("DRVR")
	if err != nil {
		return "", err
	}
	t := stats.NewTable("Fig. 7b: effective Vrst of the left-most BL",
		"row", "no DRVR (V)", "DRVR (V)", "DRVR level (V)")
	size := s.Cfg.Size
	for row := size / 32; row < size; row += size / 16 {
		eff := func(sc *core.Scheme) (float64, error) {
			op := sc.MapOp()(row, 0)
			res, err := sc.Array().SimulateReset(op)
			if err != nil {
				return 0, err
			}
			return res.Veff[0], nil
		}
		b, err := eff(base)
		if err != nil {
			return "", err
		}
		d, err := eff(drvr)
		if err != nil {
			return "", err
		}
		t.AddF(row, fmt.Sprintf("%.3f", b), fmt.Sprintf("%.3f", d),
			fmt.Sprintf("%.3f", drvr.Levels().At(row*8/size, 0)))
	}
	return t.String(), nil
}

// Fig11a tabulates the worst-case cell's effective Vrst and the op
// latency against the concurrent RESET count, reproducing the multi-bit
// sweet spot.
func (s *Suite) Fig11a() (string, error) {
	arr, err := xpoint.New(s.Cfg)
	if err != nil {
		return "", err
	}
	t := stats.NewTable("Fig. 11a: worst-case cell under N-bit RESETs (even spread, 3V)",
		"N", "worst Veff (V)", "op latency (ns)", "total current (uA)")
	cfg := s.Cfg
	for n := 1; n <= cfg.DataWidth; n++ {
		cols := make([]int, 0, n)
		for k := n - 1; k >= 0; k-- {
			mux := cfg.DataWidth - 1 - k*cfg.DataWidth/n
			cols = append(cols, cfg.ColumnOfBit(mux, cfg.MuxWidth()-1))
		}
		volts := make([]float64, n)
		for i := range volts {
			volts[i] = cfg.Params.Vrst
		}
		res, err := arr.SimulateReset(xpoint.ResetOp{Row: cfg.Size - 1, Cols: cols, Volts: volts})
		if err != nil {
			return "", err
		}
		t.AddF(n, fmt.Sprintf("%.3f", res.Veff[len(res.Veff)-1]),
			fmt.Sprintf("%.1f", res.Latency*1e9), fmt.Sprintf("%.0f", res.Itotal*1e6))
	}
	return t.String(), nil
}

// Fig11 renders the DRVR+PR maps (Fig. 11b-d).
func (s *Suite) Fig11() (string, error) {
	return s.schemeMaps("DRVR+PR", true, true, true)
}

// Fig13 renders the UDRVR+PR latency and endurance maps (Fig. 13a-b).
func (s *Suite) Fig13() (string, error) {
	return s.schemeMaps("UDRVR+PR", false, true, true)
}
