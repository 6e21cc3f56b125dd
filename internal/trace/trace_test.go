package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"runtime"
	"testing"

	"reramsim/internal/write"
)

func TestTableIV(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 11 {
		t.Fatalf("Table IV has 11 workloads, got %d", len(bs))
	}
	// Spot-check the paper's numbers.
	mcf, err := ByName("mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	if mcf.RPKI != 4.29 || mcf.WPKI != 3.89 {
		t.Errorf("mcf_m RPKI/WPKI = %g/%g, want 4.29/3.89", mcf.RPKI, mcf.WPKI)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	for _, b := range bs {
		if b.IsMix() {
			continue
		}
		if b.RPKI <= 0 || b.WPKI <= 0 || b.FootprintLines == 0 {
			t.Errorf("%s: incomplete parameters", b.Name)
		}
	}
}

func TestPerCore(t *testing.T) {
	ast, _ := ByName("ast_m")
	cores, err := PerCore(ast, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cores {
		if c.Name != "ast_m" {
			t.Fatal("homogeneous workload must run on every core")
		}
	}
	mix, _ := ByName("mix_1")
	cores, err = PerCore(mix, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, c := range cores {
		counts[c.Name]++
	}
	for _, comp := range mix.Components {
		if counts[comp] != 2 {
			t.Errorf("mix_1 runs %d copies of %s, want 2", counts[comp], comp)
		}
	}
	if _, err := PerCore(mix, 6); err == nil {
		t.Error("non-divisible core count accepted")
	}
	if _, err := NewGenerator(mix, 1); err == nil {
		t.Error("generating a mix directly must fail")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	b, _ := ByName("ast_m")
	g1, err := NewGenerator(b, 99)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(b, 99)
	var a1, a2 Access
	for i := 0; i < 1000; i++ {
		g1.Next(&a1)
		g2.Next(&a2)
		if a1 != a2 {
			t.Fatalf("access %d diverged between identical seeds", i)
		}
	}
	g3, _ := NewGenerator(b, 100)
	same := 0
	for i := 0; i < 1000; i++ {
		g1.Next(&a1)
		g3.Next(&a2)
		if a1.Line == a2.Line {
			same++
		}
	}
	if same > 900 {
		t.Error("different seeds produce nearly identical streams")
	}
}

// TestAccessRates: the generated read/write mix and instruction gaps must
// reproduce each benchmark's RPKI and WPKI within sampling noise.
func TestAccessRates(t *testing.T) {
	for _, b := range Benchmarks() {
		if b.IsMix() {
			continue
		}
		g, err := NewGenerator(b, 7)
		if err != nil {
			t.Fatal(err)
		}
		var reads, writes, instr uint64
		var a Access
		const n = 200000
		for i := 0; i < n; i++ {
			g.Next(&a)
			instr += a.InstrGap
			if a.Kind == Write {
				writes++
			} else {
				reads++
			}
		}
		rpki := float64(reads) / float64(instr) * 1000
		wpki := float64(writes) / float64(instr) * 1000
		if math.Abs(rpki-b.RPKI)/b.RPKI > 0.15 {
			t.Errorf("%s: generated RPKI %.2f, want %.2f", b.Name, rpki, b.RPKI)
		}
		if math.Abs(wpki-b.WPKI)/b.WPKI > 0.15 {
			t.Errorf("%s: generated WPKI %.2f, want %.2f", b.Name, wpki, b.WPKI)
		}
	}
}

// TestFig9Shape: after Flip-N-Write, the per-array RESET-bit distribution
// must match Fig. 9's qualitative findings: most 8-bit slices have no
// RESET, 1-3-bit RESETs appear in almost every write, and 7-8-bit slices
// are extremely rare except for xalancbmk.
func TestFig9Shape(t *testing.T) {
	hist := func(name string) (noReset, low, high float64, writesWithLow float64) {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(b, 3)
		if err != nil {
			t.Fatal(err)
		}
		var counts [9]uint64
		var total, withLow uint64
		var a Access
		var lw write.LineWrite
		for w := 0; w < 4000; {
			g.Next(&a)
			if a.Kind != Write {
				continue
			}
			w++
			write.FlipNWrite(&lw, &a.Old, &a.New)
			sawLow := false
			for _, aw := range lw.Arrays {
				n := bits.OnesCount8(aw.Reset)
				counts[n]++
				total++
				if n >= 1 && n <= 3 {
					sawLow = true
				}
			}
			if sawLow {
				withLow++
			}
		}
		return float64(counts[0]) / float64(total),
			float64(counts[1]+counts[2]+counts[3]) / float64(total),
			float64(counts[7]+counts[8]) / float64(total),
			float64(withLow) / 4000
	}

	for _, name := range []string{"ast_m", "mcf_m", "zeu_m"} {
		none, low, high, withLow := hist(name)
		if none < 0.5 {
			t.Errorf("%s: only %.0f%% of slices have no RESET, want majority", name, none*100)
		}
		if low <= high {
			t.Errorf("%s: 1-3-bit slices (%.3f) must dominate 7-8-bit (%.4f)", name, low, high)
		}
		if high > 0.01 {
			t.Errorf("%s: 7-8-bit RESET slices at %.3f, want extremely rare", name, high)
		}
		if withLow < 0.85 {
			t.Errorf("%s: only %.0f%% of writes contain a 1-3-bit slice, want almost all", name, withLow*100)
		}
	}
	// xalancbmk is the exception with visible 7-8-bit slices.
	_, _, xalHigh, _ := hist("xal_m")
	_, _, astHigh, _ := hist("ast_m")
	if xalHigh <= astHigh {
		t.Errorf("xal_m 7-8-bit rate (%.4f) should exceed ast_m's (%.4f)", xalHigh, astHigh)
	}
}

// TestFlipNWriteBound: generated writes never change more than half the
// cells after Flip-N-Write (the §II-B guarantee the lifetime math uses).
func TestFlipNWriteBound(t *testing.T) {
	b, _ := ByName("zeu_m") // densest writer
	g, _ := NewGenerator(b, 11)
	var a Access
	var lw write.LineWrite
	for w := 0; w < 2000; {
		g.Next(&a)
		if a.Kind != Write {
			continue
		}
		w++
		write.FlipNWrite(&lw, &a.Old, &a.New)
		r, s := lw.Totals()
		if r+s > 256 {
			t.Fatalf("write changes %d cells, beyond the Flip-N-Write bound", r+s)
		}
	}
}

// TestZeusmpDenseWrites: §VI notes zeusmp modifies ~30% of a line per
// write; the generator should land in that region (before Flip-N-Write).
func TestZeusmpDenseWrites(t *testing.T) {
	b, _ := ByName("zeu_m")
	g, _ := NewGenerator(b, 5)
	var changed, total float64
	var a Access
	for w := 0; w < 3000; {
		g.Next(&a)
		if a.Kind != Write {
			continue
		}
		w++
		for i := range a.Old {
			changed += float64(bits.OnesCount8(a.Old[i] ^ a.New[i]))
		}
		total += 512
	}
	frac := changed / total
	if frac < 0.12 || frac > 0.45 {
		t.Errorf("zeusmp changes %.0f%% of cells per write, want ~30%%", frac*100)
	}
}

// TestGeneratorStreamPinned pins the access stream of every homogeneous
// Table IV benchmark at seeds 1 and 42: a SHA-256 over Kind, Line,
// InstrGap, Old and New of the first 4,000 accesses, measured before
// Next filled its access in place and the power-of-two Intn draws were
// reduced by hand. A read's images are hashed too, so a read that
// carried an earlier write's data would change the digest. The
// exponential draws pass through math.Exp and flipMask's x*y+z, which
// other architectures may round differently, so the test runs on amd64
// only, as TestSimulatePinnedDigests does.
func TestGeneratorStreamPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; GOARCH=%s may round differently", runtime.GOARCH)
	}
	want := map[string][2]string{ // seed 1, seed 42
		"ast_m": {"5423038784219c0b93fb8051e6de1ff867f8bc7912e701978620de29971f31e8", "fb4b491c33cede7a8427d8ea928375cf20f0bb30df16b8bccf7af58eb91c7cb3"},
		"gem_m": {"bac51f47c484299965260b5dd064ed924b331d666b1330dedc1d2079c4edf398", "b015e900b8e1b8e4b1dd50af93c4fffd9edcb114bf026e02dc04e37f76ab3557"},
		"lbm_m": {"6a0a4e71d2b992d08d8cccb6f62d703be511b79967bec3d00bd01521fde92407", "316b3f217a90d249ddc2af9dfa880c1063bb5f02b61fc684eaccaf2dd4d79700"},
		"mcf_m": {"d91d5313f14668a85ee14fd64e095ac0c6e62d2155b34c9cfd0a06186713bc64", "85efb7282ac9dd3278737ebd1bb68210a80108f2cd0fe592b215f8455c58c40b"},
		"mil_m": {"a1c656056f82281198383795ce39a967130c10ceca9187071c0e390b3ab080be", "97bcf5a9329e0fccba6757994ff626f5f790afd2415ae0c0d41849523939cc8e"},
		"xal_m": {"3354d96b52c18106350e3730b625e15c7b7f4d8e83d47173fd8cb85874bb0c5c", "7cce9f1087087b7c609e12e4fcb2873ea51f267fdc65dd940b12aaf0d4d5546b"},
		"zeu_m": {"7828c6b736d44ca67f2e65291cebc1080ab5df1f682b72a901e7468f5d60d1d5", "13540efb791c8cf68682dbc97efd2151dd05b48900d59c7491087fc55a03c7d5"},
		"mum_m": {"3f12d4ddd8621de07e4c6cc29d9d7f21cdb6bcf5cef02cec28219266d12d2923", "a5ebc64774105e6b4e873571a71d981914095852dd139eb8f65ff4c99bc33668"},
		"tig_m": {"8f692ba5352f3a155cc35e75f7c5969714f27c83c8060e2b3340cda116ba2f88", "ac146fb7c7c729ede1355e7510e664a54fea7e15e8fdc54fd1fbf23f4dea8eef"},
	}
	hashed := 0
	for _, b := range Benchmarks() {
		if b.IsMix() {
			continue
		}
		hashed++
		for i, seed := range []int64{1, 42} {
			g, err := NewGenerator(b, seed)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var a Access
			var head [17]byte
			for n := 0; n < 4000; n++ {
				g.Next(&a)
				head[0] = byte(a.Kind)
				binary.LittleEndian.PutUint64(head[1:], a.Line)
				binary.LittleEndian.PutUint64(head[9:], a.InstrGap)
				h.Write(head[:])
				h.Write(a.Old[:])
				h.Write(a.New[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[b.Name][i] {
				t.Errorf("%s seed %d: stream digest %s, want %s", b.Name, seed, got, want[b.Name][i])
			}
		}
	}
	if hashed != len(want) {
		t.Errorf("hashed %d benchmarks, pinned %d", hashed, len(want))
	}
}
