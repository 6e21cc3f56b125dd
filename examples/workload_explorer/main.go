// workload_explorer inspects what a workload's writes look like at the
// array level — the Fig. 9 / Fig. 14 analysis: per-slice RESET-bit
// distributions after Flip-N-Write, and how partition RESET and dummy
// bit-lines transform them. Pass a Table IV benchmark name as the first
// argument (default mcf_m).
package main

import (
	"fmt"
	"log"
	"math/bits"
	"os"

	"reramsim"
	"reramsim/internal/trace"
	"reramsim/internal/write"
)

func main() {
	name := "mcf_m"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	bench, err := reramsim.BenchmarkByName(name)
	if err != nil {
		log.Fatal(err)
	}
	if bench.IsMix() {
		log.Fatalf("%s is a mix; explore its components instead: %v", name, bench.Components)
	}
	g, err := trace.NewGenerator(bench, 1)
	if err != nil {
		log.Fatal(err)
	}

	var hist [9]int
	var slices int
	var baseResets, baseSets, prResets, prSets, dblResets int
	var a trace.Access
	var lw write.LineWrite
	const writes = 5000
	for w := 0; w < writes; {
		g.Next(&a)
		if a.Kind != trace.Write {
			continue
		}
		w++
		write.FlipNWrite(&lw, &a.Old, &a.New)
		for _, aw := range lw.Arrays {
			n := bits.OnesCount8(aw.Reset)
			hist[n]++
			slices++
			r, s := aw.Count()
			baseResets += r
			baseSets += s
			pr := write.PartitionReset(aw)
			pr2, ps2 := pr.Count()
			prResets += pr2
			prSets += ps2
			_, dummies := write.DummyBL(aw)
			dblResets += r + bits.OnesCount8(dummies)
		}
	}

	fmt.Printf("%s: %d writes, RPKI %.2f, WPKI %.2f\n\n", bench.Name, writes, bench.RPKI, bench.WPKI)
	fmt.Println("RESET bits per 8-bit array slice (Fig. 9):")
	for n, c := range hist {
		frac := float64(c) / float64(slices)
		fmt.Printf("  %d bits: %6.3f%%  %s\n", n, 100*frac, bar(frac))
	}

	fmt.Printf("\nwrite amplification per 64B line (Fig. 14):\n")
	perWrite := func(v int) float64 { return float64(v) / writes }
	fmt.Printf("  Flip-N-Write:   %6.1f RESETs + %6.1f SETs (%.1f%% of cells)\n",
		perWrite(baseResets), perWrite(baseSets), 100*perWrite(baseResets+baseSets)/512)
	fmt.Printf("  + PR:           %6.1f RESETs + %6.1f SETs (+%.0f%% RESETs, %.1f%% of cells)\n",
		perWrite(prResets), perWrite(prSets),
		100*float64(prResets-baseResets)/float64(baseResets),
		100*perWrite(prResets+prSets)/512)
	fmt.Printf("  + D-BL:         %6.1f RESETs (incl. dummies, +%.0f%% RESETs)\n",
		perWrite(dblResets), 100*float64(dblResets-baseResets)/float64(baseResets))
}

func bar(frac float64) string {
	n := int(frac * 60)
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
