package chargepump

import (
	"math"
	"testing"
)

func TestBaselineAnchors(t *testing.T) {
	c, err := ForVoltage(3.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Stages != 1 {
		t.Errorf("baseline stages = %d, want 1", c.Stages)
	}
	// Table III: 23 mA at 3 V supports 256 concurrent RESETs of 90 uA
	// cells — one full worst-case 64 B line with Flip-N-Write.
	if got := c.MaxConcurrentResets(90e-6); got < 255 || got > 256 {
		t.Errorf("MaxConcurrentResets = %d, want ~256", got)
	}
	if got := c.MaxConcurrentSets(98.6e-6); got < 250 || got > 256 {
		t.Errorf("MaxConcurrentSets = %d, want ~253", got)
	}
}

func TestVoltageTiers(t *testing.T) {
	base, _ := ForVoltage(3.0)
	udrvr, err := ForVoltage(3.66)
	if err != nil {
		t.Fatal(err)
	}
	if udrvr.Stages != 2 {
		t.Errorf("3.66V pump stages = %d, want 2", udrvr.Stages)
	}
	if r := udrvr.AreaMM2 / base.AreaMM2; math.Abs(r-1.33) > 1e-9 {
		t.Errorf("3.66V pump area ratio = %g, want 1.33 (§IV-D)", r)
	}
	if r := udrvr.LeakageW / base.LeakageW; math.Abs(r-1.302) > 1e-9 {
		t.Errorf("3.66V pump leakage ratio = %g, want 1.302", r)
	}
	hi, err := ForVoltage(3.94)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Stages != 3 {
		t.Errorf("3.94V pump stages = %d, want 3", hi.Stages)
	}
	if r := hi.AreaMM2 / udrvr.AreaMM2; math.Abs(r-1.23) > 1e-9 {
		t.Errorf("3.94V pump area ratio over UDRVR = %g, want 1.23 (§VI)", r)
	}
	if _, err := ForVoltage(4.5); err == nil {
		t.Error("out-of-range voltage accepted")
	}
	if _, err := ForVoltage(-1); err == nil {
		t.Error("negative voltage accepted")
	}
}

func TestDoubled(t *testing.T) {
	base, _ := ForVoltage(3.0)
	d := base.Doubled()
	if d.IResetMax != 2*base.IResetMax || d.AreaMM2 != 2*base.AreaMM2 {
		t.Error("Doubled must double current budget and area")
	}
	if d.LeakageW <= base.LeakageW {
		t.Error("Doubled must increase leakage")
	}
}

func TestRounds(t *testing.T) {
	c, _ := ForVoltage(3.0)
	if got := c.Rounds(0, 90e-6); got != 0 {
		t.Errorf("Rounds(0) = %d", got)
	}
	if got := c.Rounds(256, 90e-6); got != 1 {
		t.Errorf("Rounds(256 cells) = %d, want 1 (one iteration per line)", got)
	}
	// D-BL worst case: 512 RESETs need two rounds on the baseline pump,
	// one round on the doubled pump.
	if got := c.Rounds(512, 90e-6); got != 2 {
		t.Errorf("Rounds(512) = %d, want 2", got)
	}
	d := c.Doubled()
	if got := d.Rounds(512, 90e-6); got != 1 {
		t.Errorf("doubled Rounds(512) = %d, want 1", got)
	}
}

func TestPhaseOverheads(t *testing.T) {
	c, _ := ForVoltage(3.0)
	if got := c.PhaseOverheadLatency(1); math.Abs(got-49e-9) > 1e-12 {
		t.Errorf("1-round overhead latency = %g, want 49ns", got)
	}
	if got := c.PhaseOverheadEnergy(2); math.Abs(got-2*30.9e-9) > 1e-12 {
		t.Errorf("2-round overhead energy = %g, want 61.8nJ", got)
	}
	if c.PhaseOverheadLatency(0) != 0 || c.PhaseOverheadEnergy(0) != 0 {
		t.Error("zero rounds must add nothing")
	}
}

func TestDeliveredEnergy(t *testing.T) {
	c, _ := ForVoltage(3.0)
	if got := c.DeliveredEnergy(1e-9); math.Abs(got-1e-9/0.33) > 1e-15 {
		t.Errorf("DeliveredEnergy = %g", got)
	}
}

func TestValidateRejects(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.Vout = 1.0 }, // below Vdd
		func(c *Config) { c.Stages = 0 },
		func(c *Config) { c.IResetMax = 0 },
		func(c *Config) { c.Efficiency = 1.5 },
		func(c *Config) { c.AreaMM2 = 0 },
	}
	for i, mod := range mods {
		c, _ := ForVoltage(3.0)
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
