// voltage_maps renders the paper's Fig. 4-style surfaces: how effective
// RESET voltage, latency and endurance vary with a cell's position in the
// cross-point array, for the baseline and for DRVR+PR.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"reramsim"
)

func main() {
	cfg := reramsim.CalibratedConfig()

	schemes := []func(reramsim.ArrayConfig) (*reramsim.Scheme, error){
		reramsim.Baseline,
		reramsim.DRVRPR,
	}
	const blocks = 8
	for _, build := range schemes {
		s, err := build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		eff, err := s.EffectiveVrstMap(context.Background(), blocks)
		if err != nil {
			log.Fatal(err)
		}
		lat, err := s.LatencyMap(context.Background(), blocks)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("=== %s ===\n", s.Name())
		fmt.Println("effective Vrst (V); bottom row = nearest the write drivers,")
		fmt.Println("left column = nearest the row decoder:")
		printGrid(eff.Values, func(v float64) string { return fmt.Sprintf("%5.2f", v) })
		fmt.Println("RESET latency (ns):")
		printGrid(lat.Values, func(v float64) string {
			if math.IsInf(v, 1) {
				return " fail"
			}
			return fmt.Sprintf("%5.0f", v*1e9)
		})
		fmt.Printf("array RESET latency (slowest block): %.0f ns\n\n", lat.Max()*1e9)
	}
}

func printGrid(values [][]float64, format func(float64) string) {
	for i := len(values) - 1; i >= 0; i-- {
		for j, v := range values[i] {
			if j > 0 {
				fmt.Print(" ")
			}
			fmt.Print(format(v))
		}
		fmt.Println()
	}
	fmt.Println()
}
