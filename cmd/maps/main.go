// Command maps exports the position-dependence surfaces (effective Vrst,
// RESET latency, endurance — the paper's Figs. 4/6/11/13) as CSV for
// external plotting.
//
// Usage:
//
//	maps -scheme UDRVR+PR -metric latency -blocks 16 > udrvrpr_latency.csv
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"reramsim/internal/core"
	"reramsim/internal/experiments"
	"reramsim/internal/solvecache"
	"reramsim/internal/xpoint"
)

func main() {
	var (
		scheme = flag.String("scheme", "Base", "scheme name (see cmd/reramsim -list)")
		metric = flag.String("metric", "veff", "veff | latency | endurance")
		blocks = flag.Int("blocks", 8, "sampling blocks per axis (must divide the array size)")
		list   = flag.Bool("list", false, "list schemes and exit")

		solveCacheDir = flag.String("solve-cache", "", "directory for the persistent solve cache (default: disabled); results are identical with or without it")
	)
	flag.Parse()
	if *solveCacheDir != "" {
		sc, err := solvecache.Open(*solveCacheDir)
		if err != nil {
			fail(fmt.Errorf("-solve-cache: %w", err))
		}
		core.SetSolveCache(sc)
	}

	if *list {
		fmt.Println(strings.Join(experiments.SchemeNames(), "\n"))
		return
	}

	suite, err := experiments.NewSuite(0)
	if err != nil {
		fail(err)
	}
	sc, err := suite.Scheme(*scheme)
	if err != nil {
		fail(err)
	}

	var m *xpoint.Map
	switch *metric {
	case "veff":
		m, err = sc.EffectiveVrstMap(context.Background(), *blocks)
	case "latency":
		m, err = sc.LatencyMap(context.Background(), *blocks)
	case "endurance":
		m, err = sc.EnduranceMap(context.Background(), *blocks)
	default:
		fail(fmt.Errorf("unknown metric %q (veff | latency | endurance)", *metric))
	}
	if err != nil {
		fail(err)
	}

	w := csv.NewWriter(os.Stdout)
	header := []string{"row_block"}
	for j := 0; j < m.Blocks; j++ {
		header = append(header, fmt.Sprintf("col%d", j))
	}
	if err := w.Write(header); err != nil {
		fail(err)
	}
	for i, row := range m.Values {
		rec := []string{strconv.Itoa(i)}
		for _, v := range row {
			if math.IsInf(v, 1) {
				rec = append(rec, "inf")
			} else {
				rec = append(rec, strconv.FormatFloat(v, 'g', 8, 64))
			}
		}
		if err := w.Write(rec); err != nil {
			fail(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "maps:", err)
	os.Exit(1)
}
