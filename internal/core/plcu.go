package core

import (
	"fmt"
	"math"
	"math/rand"

	"albireo/internal/circuit"
	"albireo/internal/noise"
	"albireo/internal/photonics"
	"albireo/internal/quant"
)

// PLCU is the functional model of one photonic locally-connected unit
// (paper Figure 5): Nm weight MZMs fed by star-coupler multicast, a
// 2*Nm*Nd grid of switching MRRs, and Nd balanced photodiode columns.
// In one cycle it computes Nd concurrent dot products between one
// kernel channel and Nd overlapping receptive fields.
//
// The simulation carries values through the physical chain:
//
//  1. weights and activations are quantized by the 8-bit DACs,
//  2. each MZM scales all of its wavelengths by |w| (Eq. 2),
//  3. each switching MRR drops its wavelength onto the positive or
//     negative accumulation waveguide according to sign(w), coupling in
//     leakage from the other wavelengths sharing its bus per the
//     crosstalk matrix of the 21-channel grid,
//  4. the balanced PD subtracts the two accumulated powers (Eq. 4) and
//     RIN/shot/thermal noise perturbs the output current.
type PLCU struct {
	cfg Config
	// unitCurrent is the photocurrent of one full-scale product
	// (weight 1 x activation 1) after the complete optical path.
	unitCurrent float64
	// xt[(t*Nd+d)*Nd+dp] is the fractional leakage of the wavelength of
	// column dp on tap t's MZM bus into the ring of (t, d): the
	// crosstalk matrix of the grid channels riding that bus, flattened
	// so the datapath reads one contiguous row per ring. Nil when
	// crosstalk is disabled.
	xt []float64
	// sigma is the RMS output-current noise of one Nm-wavelength
	// accumulation (noise.Params.TotalSigma), constant per unit.
	sigma  float64
	wq, aq quant.Quantizer
	rng    *rand.Rand
	// faults holds injected hardware defects (see faults.go).
	faults []Fault
	// faultEpoch advances on every InjectFault/ClearFaults so the
	// chip's weight-program cache can detect that previously compiled
	// fault-effective weights are stale.
	faultEpoch int64
	// cycles counts Currents calls - the unit's elapsed modulation
	// cycles, which progressive (drifting) faults key off.
	cycles int64
	// qwBuf and qaBuf are the unit's scratch arena: the quantized
	// weight vector and activation matrix CurrentsInto reuses across
	// cycles instead of allocating per call. qaBuf rows share one
	// backing array.
	qwBuf []float64
	qaBuf [][]float64
}

// NewPLCU builds a functional PLCU for the given configuration. The
// configuration must validate.
func NewPLCU(cfg Config) *PLCU {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid config: %v", err)) //lint:ignore exit-hygiene constructor refuses a config Validate already rejected; caller bug
	}
	delivered := cfg.SignalPath().Deliver(cfg.LaserPower)
	pd := photonics.NewPhotodiode()

	var xt []float64
	if !cfg.DisableCrosstalk {
		xm := circuit.NewCrosstalkAnalysis(cfg.K2, cfg.WavelengthsPerPLCU()).CrosstalkMatrix()
		xt = make([]float64, cfg.Nm*cfg.Nd*cfg.Nd)
		for i := range xt {
			t, d, dp := i/(cfg.Nd*cfg.Nd), i/cfg.Nd%cfg.Nd, i%cfg.Nd
			xt[i] = xm[cfg.gridChannel(t, d)][cfg.gridChannel(t, dp)]
		}
	}
	unitCurrent := pd.Responsivity * delivered
	np := noise.DefaultParams()
	np.Bandwidth = cfg.ModulationRate()

	qaData := make([]float64, cfg.Nm*cfg.Nd)
	qaBuf := make([][]float64, cfg.Nm)
	for t := 0; t < cfg.Nm; t++ {
		qaBuf[t] = qaData[t*cfg.Nd : (t+1)*cfg.Nd : (t+1)*cfg.Nd]
	}

	return &PLCU{
		cfg:         cfg,
		unitCurrent: unitCurrent,
		xt:          xt,
		sigma:       np.TotalSigma(unitCurrent, cfg.Nm),
		wq:          quant.NewWeight(cfg.DACBits, 1),
		aq:          quant.NewActivation(cfg.DACBits, 1),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		qwBuf:       make([]float64, cfg.Nm),
		qaBuf:       qaBuf,
	}
}

// UnitCurrent returns the photocurrent of a full-scale product, the
// calibration constant relating current to value domain.
func (p *PLCU) UnitCurrent() float64 { return p.unitCurrent }

// Cycles returns the unit's elapsed modulation cycles (Currents
// calls). Progressive faults worsen as this advances.
func (p *PLCU) Cycles() int64 { return p.cycles }

// QuantizeWeight exposes the unit's DAC weight quantization: the
// closed-form healthy response to a probe weight is its quantized
// value, which the internal/health BIST engine compares observations
// against.
func (p *PLCU) QuantizeWeight(w float64) float64 { return p.quantizeWeight(w) }

// quantizeWeight snaps a weight in [-1, 1] onto the DAC grid. The
// default grid is uniform in value (a pre-distorted controller); with
// Config.VoltageDomainWeights the grid is uniform in MZM drive voltage
// and the Eq. 2 raised-cosine transfer warps it.
func (p *PLCU) quantizeWeight(w float64) float64 {
	if !p.cfg.VoltageDomainWeights {
		return p.wq.Quantize(w)
	}
	mag := math.Abs(w)
	if mag > 1 {
		mag = 1
	}
	// Voltage fraction for this magnitude: v/Vpi = dphi/pi.
	m := photonics.MZM{}
	frac := m.PhaseForWeight(mag) / math.Pi
	steps := float64(int(1)<<uint(p.cfg.DACBits-1) - 1)
	frac = math.Round(frac*steps) / steps
	qmag := m.Transfer(frac * math.Pi)
	if w < 0 {
		return -qmag
	}
	return qmag
}

// Currents computes the Nd differential output currents for one cycle.
//
// weights has length Nm: the kernel channel in row-major order,
// normalized to [-1, 1]. avals is indexed [tap][column]: avals[t][d]
// is the activation (in [0, 1]) that output column d multiplies with
// weight t. For the native 3x3 stride-1 mapping, avals[t][d] =
// field[t/Wx][t%Wx + d], the overlapping receptive fields of Figure 5.
func (p *PLCU) Currents(weights []float64, avals [][]float64) []float64 {
	return p.CurrentsInto(make([]float64, p.cfg.Nd), weights, avals)
}

// CurrentsInto is the in-place variant of Currents: it writes the Nd
// differential currents into dst (which must have length Nd) and
// returns it, allocating nothing. The quantized weight vector and
// activation matrix live in the unit's scratch arena, so CurrentsInto
// is not safe for concurrent use on one PLCU - which mirrors the
// hardware: a unit executes one modulation cycle at a time.
//
//hot: steady-state per-cycle entry point; must not allocate.
func (p *PLCU) CurrentsInto(dst, weights []float64, avals [][]float64) []float64 {
	cfg := p.cfg
	p.cycles++
	if len(weights) != cfg.Nm {
		panic(fmt.Sprintf("core: want %d weights, got %d", cfg.Nm, len(weights))) //lint:ignore exit-hygiene weight-count shape invariant; caller bug
	}
	if len(avals) != cfg.Nm {
		panic(fmt.Sprintf("core: want %d activation rows, got %d", cfg.Nm, len(avals))) //lint:ignore exit-hygiene activation-row shape invariant; caller bug
	}

	// DAC quantization at the electrical/optical boundary, then any
	// stuck-modulator faults.
	for t, w := range weights {
		p.qwBuf[t] = p.effectiveWeight(t, p.quantizeWeight(w))
	}
	for t := range avals {
		if len(avals[t]) != cfg.Nd {
			panic(fmt.Sprintf("core: tap %d wants %d activations, got %d", t, cfg.Nd, len(avals[t]))) //lint:ignore exit-hygiene per-tap activation shape invariant; caller bug
		}
		row := p.qaBuf[t]
		for d, a := range avals[t] {
			row[d] = p.aq.Quantize(a)
		}
	}
	return p.accumulate(dst, p.qwBuf, p.qaBuf)
}

// currentsPrequantized runs one cycle on weights and activations that
// are already on the DAC grids: qw holds fault-effective quantized
// weights (a compiled weight-program slot) and qa rows hold quantized
// activations. It advances the same cycle counter and draws the same
// noise samples as Currents, so outputs are bit-identical to the
// quantize-on-entry path.
//
//hot: weight-stationary inner loop; must not allocate.
func (p *PLCU) currentsPrequantized(dst []float64, qw []float64, qa [][]float64) []float64 {
	p.cycles++
	return p.accumulate(dst, qw, qa)
}

// accumulate is the shared analog datapath: MZM scaling, MRR routing
// with crosstalk and ring faults, balanced detection, and noise. qw
// and qa must already be quantized and fault-adjusted.
//
//hot: innermost per-column loop; must not allocate.
func (p *PLCU) accumulate(dst []float64, qw []float64, qa [][]float64) []float64 {
	cfg := p.cfg
	for d := 0; d < cfg.Nd; d++ {
		var pos, neg float64
		for t := 0; t < cfg.Nm; t++ {
			w := qw[t]
			if w == 0 {
				continue
			}
			mag, a := math.Abs(w), qa[t]
			// Intended signal: the ring for (t, d) drops its own
			// wavelength carrying |w| * a.
			sig := mag * a[d]
			// Crosstalk: the same ring couples a fraction of the other
			// columns' wavelengths riding tap t's bus.
			if p.xt != nil {
				row := p.xt[(t*cfg.Nd+d)*cfg.Nd : (t*cfg.Nd+d+1)*cfg.Nd]
				for dp, x := range row {
					if dp == d {
						continue
					}
					sig += x * mag * a[dp]
				}
			}
			// Switching-ring faults attenuate whatever this ring
			// couples (signal and leakage alike).
			if p.faults != nil {
				sig *= p.ringGain(t, d)
			}
			if w > 0 {
				pos += sig
			} else {
				neg += sig
			}
		}
		i := (pos - neg) * p.unitCurrent
		if !cfg.DisableNoise {
			i += p.rng.NormFloat64() * p.sigma
		}
		dst[d] = i
	}
	return dst
}

// Dot computes the Nd dot products in the value domain (no ADC): the
// differential currents divided by the unit current. Used by tests and
// by the PLCG, which applies the shared ADC after the analog
// cross-unit reduction.
func (p *PLCU) Dot(weights []float64, avals [][]float64) []float64 {
	cur := p.Currents(weights, avals)
	for i := range cur {
		cur[i] /= p.unitCurrent
	}
	return cur
}

// DotInto is the in-place variant of Dot: dst must have length Nd.
// Like CurrentsInto it allocates nothing and is not safe for
// concurrent use on one PLCU.
func (p *PLCU) DotInto(dst, weights []float64, avals [][]float64) []float64 {
	p.CurrentsInto(dst, weights, avals)
	for i := range dst {
		dst[i] /= p.unitCurrent
	}
	return dst
}

// ReceptiveFieldAVals lays out a KernelH x (Nd+KernelW-1) input field
// into the [tap][column] activation matrix of the native stride-1
// mapping: avals[t][d] = field[t/Wx][t%Wx + d].
func (p *PLCU) ReceptiveFieldAVals(field [][]float64) [][]float64 {
	cfg := p.cfg
	width := cfg.Nd + cfg.KernelW - 1
	if len(field) != cfg.KernelH {
		panic(fmt.Sprintf("core: field wants %d rows, got %d", cfg.KernelH, len(field))) //lint:ignore exit-hygiene field row-count invariant; caller bug
	}
	out := make([][]float64, cfg.Nm)
	for t := 0; t < cfg.Nm; t++ {
		r, c := t/cfg.KernelW, t%cfg.KernelW
		if len(field[r]) != width {
			panic(fmt.Sprintf("core: field row %d wants %d cols, got %d", r, width, len(field[r]))) //lint:ignore exit-hygiene field column-count invariant; caller bug
		}
		row := make([]float64, cfg.Nd)
		for d := 0; d < cfg.Nd; d++ {
			row[d] = field[r][c+d]
		}
		out[t] = row
	}
	return out
}
