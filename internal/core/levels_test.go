package core

import (
	"math"
	"testing"

	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/xpoint"
)

// TestCalibrationDeterministicAcrossJobs: the section fan-out in
// CalibrateUDRVR and CalibrateTargetEff must produce bit-identical level
// tables at every worker count — sections read and write only their own
// table row, so the secant iterates cannot depend on scheduling.
func TestCalibrationDeterministicAcrossJobs(t *testing.T) {
	cfg := testConfig()
	arr, err := xpoint.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	calibrate := func(jobs int) (*LevelTable, *LevelTable) {
		par.SetJobs(jobs)
		drvr, err := CalibrateDRVRSections(arr, Sections, MaxLevel)
		if err != nil {
			t.Fatal(err)
		}
		ud, err := CalibrateUDRVR(arr, drvr, cfg.Params.VwriteMin+0.3, MaxLevel, true)
		if err != nil {
			t.Fatal(err)
		}
		te, err := CalibrateTargetEff(arr, 3.0, cfg.Params.VwriteMin+0.3, EscalationCap)
		if err != nil {
			t.Fatal(err)
		}
		return ud, te
	}
	defer par.SetJobs(0)

	refUD, refTE := calibrate(1)
	for _, jobs := range []int{2, 8} {
		ud, te := calibrate(jobs)
		for s := 0; s < refUD.Sections; s++ {
			for m := 0; m < refUD.Muxes; m++ {
				if ud.V[s][m] != refUD.V[s][m] {
					t.Fatalf("jobs=%d: UDRVR level [%d][%d] = %v, serial %v",
						jobs, s, m, ud.V[s][m], refUD.V[s][m])
				}
				if te.V[s][m] != refTE.V[s][m] {
					t.Fatalf("jobs=%d: target-eff level [%d][%d] = %v, serial %v",
						jobs, s, m, te.V[s][m], refTE.V[s][m])
				}
			}
		}
	}
}

// TestCalibrationCountsSweeps: with obs on, the UDRVR and target-Veff
// calibrations publish their ladder work in xpoint.reset.sweeps, the
// host-independent work counter, like every other RESET solve.
func TestCalibrationCountsSweeps(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})
	cfg := testConfig()
	minV := cfg.Params.VwriteMin + 0.3
	drvr, err := CalibrateDRVRSections(xpoint.MustNew(cfg), Sections, MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	sweeps := obs.C("xpoint.reset.sweeps")
	for _, c := range []struct {
		name string
		run  func(arr *xpoint.Array) error
	}{
		{"CalibrateUDRVR", func(arr *xpoint.Array) error {
			_, err := CalibrateUDRVR(arr, drvr, minV, MaxLevel, true)
			return err
		}},
		{"CalibrateTargetEff", func(arr *xpoint.Array) error {
			_, err := CalibrateTargetEff(arr, 2.5, minV, EscalationCap)
			return err
		}},
	} {
		before := sweeps.Value()
		if err := c.run(xpoint.MustNew(cfg)); err != nil {
			t.Fatal(err)
		}
		if sweeps.Value() == before {
			t.Errorf("%s on a fresh Array added no xpoint.reset.sweeps", c.name)
		}
	}
}

// TestCalibrationMatchesSerialReference: the fanned-out calibrations
// must reproduce the per-section serial iteration bit for bit — sections
// are independent, so the schedule cannot reach the iterates.
func TestCalibrationMatchesSerialReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full calibration in -short")
	}
	cfg := testConfig()
	arr, err := xpoint.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	minV := cfg.Params.VwriteMin + 0.3

	drvr, err := CalibrateDRVRSections(arr, Sections, MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CalibrateUDRVR(arr, drvr, minV, MaxLevel, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialUDRVR(arr, drvr, minV, MaxLevel, true)
	if err != nil {
		t.Fatal(err)
	}
	compareTables(t, "UDRVR", got, want)

	gotTE, err := CalibrateTargetEff(arr, 2.5, minV, 3.94)
	if err != nil {
		t.Fatal(err)
	}
	wantTE, err := serialTargetEff(arr, 2.5, minV, 3.94)
	if err != nil {
		t.Fatal(err)
	}
	compareTables(t, "TargetEff", gotTE, wantTE)
}

func compareTables(t *testing.T, name string, got, want *LevelTable) {
	t.Helper()
	if got.Sections != want.Sections || got.Muxes != want.Muxes {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", name, got.Sections, got.Muxes, want.Sections, want.Muxes)
	}
	for s := range want.V {
		for m := range want.V[s] {
			if math.Float64bits(got.V[s][m]) != math.Float64bits(want.V[s][m]) {
				t.Errorf("%s: V[%d][%d] = %v, serial %v", name, s, m, got.V[s][m], want.V[s][m])
			}
		}
	}
}

// serialUDRVR is CalibrateUDRVR as one loop: per-section sequential
// solves through effInContext. Kept as the reference iteration.
func serialUDRVR(arr *xpoint.Array, drvr *LevelTable, minV, maxV float64, prContext bool) (*LevelTable, error) {
	cfg := arr.Config()
	muxes := cfg.DataWidth
	t := FlatLevels(drvr.Sections, muxes, cfg.Params.Vrst)
	for s := range t.V {
		copy(t.V[s], drvr.V[s])
	}
	for s := 0; s < t.Sections; s++ {
		row := sectionMidRow(s, t.Sections, cfg.Size)
		target, err := effInContext(arr, t, s, row, muxes-1, prContext)
		if err != nil {
			return nil, err
		}
		for pass := 0; pass < 3; pass++ {
			for m := muxes - 2; m >= 0; m-- {
				eff, err := effInContext(arr, t, s, row, m, prContext)
				if err != nil {
					return nil, err
				}
				level := t.V[s][m] + (target - eff)
				if level < minV {
					level = minV
				}
				if level > maxV {
					level = maxV
				}
				t.V[s][m] = level
			}
		}
	}
	return t, nil
}

// serialTargetEff is CalibrateTargetEff as one loop: per-section
// sequential solveLevel secants.
func serialTargetEff(arr *xpoint.Array, targetEff, minV, maxV float64) (*LevelTable, error) {
	cfg := arr.Config()
	muxes := cfg.DataWidth
	muxW := cfg.MuxWidth()
	t := FlatLevels(Sections, muxes, cfg.Params.Vrst)
	for s := 0; s < Sections; s++ {
		row := sectionMidRow(s, Sections, cfg.Size)
		for m := muxes - 1; m >= 0; m-- {
			start := cfg.Params.Vrst
			if m < muxes-1 {
				start = t.V[s][m+1]
			}
			level, err := solveLevel(arr, row, m*muxW+muxW/2, targetEff, start, minV, maxV)
			if err != nil {
				return nil, err
			}
			t.V[s][m] = level
		}
	}
	return t, nil
}
