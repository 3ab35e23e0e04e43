package core

import (
	"math"
	"testing"

	"albireo/internal/circuit"
	"albireo/internal/device"
	"albireo/internal/noise"
)

func idealConfig() Config {
	c := DefaultConfig()
	c.DisableNoise = true
	c.DisableCrosstalk = true
	return c
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config should validate: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.Nm = 0; return c }(),
		func() Config { c := DefaultConfig(); c.Nm = 8; return c }(), // Nm != Wy*Wx
		func() Config { c := DefaultConfig(); c.K2 = 0; return c }(),
		func() Config { c := DefaultConfig(); c.K2 = 1.5; return c }(),
		func() Config { c := DefaultConfig(); c.LaserPower = 0; return c }(),
		func() Config { c := DefaultConfig(); c.ADCBits = 1; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d should fail validation", i)
		}
	}
}

func TestConfigDerived(t *testing.T) {
	t.Parallel()
	c := DefaultConfig()
	// Section III-A: 21 wavelengths per PLCU, 63 per PLCG.
	if c.WavelengthsPerPLCU() != 21 {
		t.Errorf("wavelengths per PLCU = %d, want 21", c.WavelengthsPerPLCU())
	}
	if c.TotalWavelengths() != 63 {
		t.Errorf("total wavelengths = %d, want 63", c.TotalWavelengths())
	}
	// Modulation rates follow the converter estimates.
	if c.ModulationRate() != 5e9 {
		t.Error("conservative modulation rate should be 5 GHz")
	}
	a := c
	a.Estimate = device.Aggressive
	if a.ModulationRate() != 8e9 {
		t.Error("aggressive modulation rate should be 8 GHz")
	}
	if Albireo27().Ng != 27 {
		t.Error("Albireo27 should have 27 PLCGs")
	}
	if c.String() == "" {
		t.Error("config String")
	}
}

func TestGridChannelMapping(t *testing.T) {
	t.Parallel()
	c := DefaultConfig()
	// Figure 5: tap (row 0, col 0) for column d uses channel d; tap
	// (row 1, col 2) for column d uses channel 7 + 2 + d.
	if got := c.gridChannel(0, 0); got != 0 {
		t.Errorf("gridChannel(0,0) = %d, want 0", got)
	}
	if got := c.gridChannel(5, 3); got != 7+2+3 {
		t.Errorf("gridChannel(5,3) = %d, want 12", got)
	}
	// Channels stay within the 21-wavelength grid.
	for tap := 0; tap < c.Nm; tap++ {
		for d := 0; d < c.Nd; d++ {
			ch := c.gridChannel(tap, d)
			if ch < 0 || ch >= c.WavelengthsPerPLCU() {
				t.Fatalf("gridChannel(%d,%d) = %d out of range", tap, d, ch)
			}
		}
	}
}

func TestPLCUIdealDotProducts(t *testing.T) {
	t.Parallel()
	// With noise and crosstalk disabled, the PLCU computes exact
	// 8-bit-quantized dot products over the overlapping receptive
	// fields.
	p := NewPLCU(idealConfig())
	weights := []float64{0.5, -0.25, 1, 0, 0.75, -1, 0.125, 0.5, -0.5}
	field := [][]float64{
		{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
		{0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1},
		{0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0},
	}
	avals := p.ReceptiveFieldAVals(field)
	got := p.Dot(weights, avals)
	for d := 0; d < 5; d++ {
		var want float64
		for tap := 0; tap < 9; tap++ {
			r, c := tap/3, tap%3
			want += weights[tap] * field[r][c+d]
		}
		// Only DAC quantization error remains: 9 products each within
		// ~1.5 LSB of (1/127 + 1/255).
		if math.Abs(got[d]-want) > 9*0.02 {
			t.Errorf("column %d: got %.4f, want %.4f", d, got[d], want)
		}
	}
}

func TestPLCUZeroWeightIsExactZero(t *testing.T) {
	t.Parallel()
	p := NewPLCU(idealConfig())
	weights := make([]float64, 9)
	field := [][]float64{
		{1, 1, 1, 1, 1, 1, 1},
		{1, 1, 1, 1, 1, 1, 1},
		{1, 1, 1, 1, 1, 1, 1},
	}
	got := p.Dot(weights, p.ReceptiveFieldAVals(field))
	for d, v := range got {
		if v != 0 {
			t.Errorf("column %d: zero weights should give exactly 0, got %g", d, v)
		}
	}
}

func TestPLCUCrosstalkPerturbsNeighbors(t *testing.T) {
	t.Parallel()
	// Crosstalk couples other columns' activations into a column's
	// output: a column whose own activations are zero still reads a
	// small positive value when its neighbors are lit.
	cfg := DefaultConfig()
	cfg.DisableNoise = true
	p := NewPLCU(cfg)
	weights := []float64{1, 0, 0, 0, 0, 0, 0, 0, 0}
	// Column 0 sees activation 0 on tap 0; columns 1..4 see 1.
	avals := make([][]float64, 9)
	for t2 := range avals {
		avals[t2] = make([]float64, 5)
	}
	for d := 1; d < 5; d++ {
		avals[0][d] = 1
	}
	got := p.Dot(weights, avals)
	if got[0] <= 0 {
		t.Errorf("crosstalk should leak neighbor power into column 0, got %g", got[0])
	}
	if got[0] > 0.1 {
		t.Errorf("crosstalk leakage %g implausibly large", got[0])
	}
	// With crosstalk disabled the leak disappears.
	ideal := NewPLCU(idealConfig())
	if v := ideal.Dot(weights, avals)[0]; v != 0 {
		t.Errorf("ideal column 0 should be exactly 0, got %g", v)
	}
}

func TestPLCUNoiseStatistics(t *testing.T) {
	t.Parallel()
	// With crosstalk off and noise on, repeated evaluations of a zero
	// dot product scatter around zero with the configured sigma.
	cfg := DefaultConfig()
	cfg.DisableCrosstalk = true
	p := NewPLCU(cfg)
	weights := make([]float64, 9)
	weights[0] = 1e-9 // keep the tap active but negligible
	avals := make([][]float64, 9)
	for t2 := range avals {
		avals[t2] = make([]float64, 5)
	}
	var sum, sum2 float64
	const trials = 4000
	for i := 0; i < trials; i++ {
		v := p.Currents(weights, avals)[0]
		sum += v
		sum2 += v * v
	}
	mean := sum / trials
	std := math.Sqrt(sum2/trials - mean*mean)
	want := p.sigma
	if math.Abs(std-want)/want > 0.1 {
		t.Errorf("noise std %g, want %g", std, want)
	}
}

func TestPLCUUnitCurrentReasonable(t *testing.T) {
	t.Parallel()
	p := NewPLCU(DefaultConfig())
	// 2 mW laser through a ~26 dB path at 1.1 A/W: a few microamps.
	i := p.UnitCurrent()
	if i < 0.5e-6 || i > 50e-6 {
		t.Errorf("unit current %g A outside plausible range", i)
	}
}

func TestPLCUPanics(t *testing.T) {
	t.Parallel()
	p := NewPLCU(idealConfig())
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	good := make([][]float64, 9)
	for i := range good {
		good[i] = make([]float64, 5)
	}
	expectPanic("short weights", func() { p.Currents([]float64{1}, good) })
	expectPanic("short avals", func() { p.Currents(make([]float64, 9), good[:3]) })
	expectPanic("ragged avals", func() {
		bad := make([][]float64, 9)
		for i := range bad {
			bad[i] = make([]float64, 2)
		}
		p.Currents(make([]float64, 9), bad)
	})
	expectPanic("bad field rows", func() { p.ReceptiveFieldAVals([][]float64{{1}}) })
	expectPanic("bad field cols", func() {
		p.ReceptiveFieldAVals([][]float64{{1}, {1}, {1}})
	})
	expectPanic("invalid config", func() { NewPLCU(Config{}) })
}

// TestPLCUCachedSigma pins the per-unit noise cache: every unit's
// sigma is exactly noise.Params.TotalSigma at its bandwidth, unit
// current and Nm, the value the datapath used to recompute per sample.
func TestPLCUCachedSigma(t *testing.T) {
	t.Parallel()
	noXT := DefaultConfig()
	noXT.DisableCrosstalk = true
	volt := DefaultConfig()
	volt.VoltageDomainWeights = true
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"no-crosstalk", noXT}, {"voltage-domain", volt}} {
		np := noise.DefaultParams()
		np.Bandwidth = tc.cfg.ModulationRate()
		for gi, g := range NewChip(tc.cfg).Groups() {
			for ui, u := range g.Units() {
				want := np.TotalSigma(u.UnitCurrent(), tc.cfg.Nm)
				if math.Float64bits(u.sigma) != math.Float64bits(want) {
					t.Errorf("%s: plcg%d/plcu%d sigma %g, want TotalSigma %g", tc.name, gi, ui, u.sigma, want)
				}
			}
		}
	}
}

// TestPLCUFlatCrosstalkTable pins the flattened crosstalk table
// against the grid matrix it is built from: entry (tap, d, dp) is the
// leakage of the channel column dp rides on tap's bus into the ring of
// column d.
func TestPLCUFlatCrosstalkTable(t *testing.T) {
	t.Parallel()
	for _, cfg := range []Config{DefaultConfig(), func() Config {
		c := DefaultConfig()
		c.Nd, c.K2 = 3, 0.1
		return c
	}()} {
		p := NewPLCU(cfg)
		xm := circuit.NewCrosstalkAnalysis(cfg.K2, cfg.WavelengthsPerPLCU()).CrosstalkMatrix()
		if len(p.xt) != cfg.Nm*cfg.Nd*cfg.Nd {
			t.Fatalf("Nd=%d: table has %d entries, want %d", cfg.Nd, len(p.xt), cfg.Nm*cfg.Nd*cfg.Nd)
		}
		for tap := 0; tap < cfg.Nm; tap++ {
			for d := 0; d < cfg.Nd; d++ {
				for dp := 0; dp < cfg.Nd; dp++ {
					want := xm[cfg.gridChannel(tap, d)][cfg.gridChannel(tap, dp)]
					if got := p.xt[(tap*cfg.Nd+d)*cfg.Nd+dp]; math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("Nd=%d: xt(tap %d, d %d, dp %d) = %g, want %g", cfg.Nd, tap, d, dp, got, want)
					}
				}
			}
		}
	}
	if p := NewPLCU(idealConfig()); p.xt != nil {
		t.Error("DisableCrosstalk should leave the table nil")
	}
}
