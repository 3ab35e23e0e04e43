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
	// crosstalk is disabled. Read-only, and shared by every unit of a
	// chip (see crosstalkTable).
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
	// weight vector and the tap-major activation tile
	// (qaBuf[t*Nd+d]) CurrentsInto reuses across cycles instead of
	// allocating per call.
	qwBuf []float64
	qaBuf []float64
}

// NewPLCU builds a functional PLCU for the given configuration. The
// configuration must validate.
func NewPLCU(cfg Config) *PLCU {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid config: %v", err)) //lint:ignore exit-hygiene constructor refuses a config Validate already rejected; caller bug
	}
	return newPLCU(cfg, crosstalkTable(cfg))
}

// crosstalkTable builds the flat table PLCU.xt describes, or nil when
// crosstalk is disabled. It depends only on the chip geometry and k^2,
// never on the seed, so a chip builds it once for all of its units
// rather than repeating the crosstalk analysis per unit.
func crosstalkTable(cfg Config) []float64 {
	if cfg.DisableCrosstalk {
		return nil
	}
	xm := circuit.NewCrosstalkAnalysis(cfg.K2, cfg.WavelengthsPerPLCU()).CrosstalkMatrix()
	xt := make([]float64, cfg.Nm*cfg.Nd*cfg.Nd)
	for i := range xt {
		t, d, dp := i/(cfg.Nd*cfg.Nd), i/cfg.Nd%cfg.Nd, i%cfg.Nd
		xt[i] = xm[cfg.gridChannel(t, d)][cfg.gridChannel(t, dp)]
	}
	return xt
}

// newPLCU builds a unit of a validated configuration around a shared,
// read-only crosstalk table.
func newPLCU(cfg Config, xt []float64) *PLCU {
	delivered := cfg.SignalPath().Deliver(cfg.LaserPower)
	pd := photonics.NewPhotodiode()
	unitCurrent := pd.Responsivity * delivered
	np := noise.DefaultParams()
	np.Bandwidth = cfg.ModulationRate()

	return &PLCU{
		cfg:         cfg,
		unitCurrent: unitCurrent,
		xt:          xt,
		sigma:       np.TotalSigma(unitCurrent, cfg.Nm),
		wq:          quant.NewWeight(cfg.DACBits, 1),
		aq:          quant.NewActivation(cfg.DACBits, 1),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		qwBuf:       make([]float64, cfg.Nm),
		qaBuf:       make([]float64, cfg.Nm*cfg.Nd),
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
//hot:steady-state per-cycle entry point; must not allocate.
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
		for d, a := range avals[t] {
			p.qaBuf[t*cfg.Nd+d] = p.aq.Quantize(a)
		}
	}
	return p.accumulate(dst, p.qwBuf, p.qaBuf)
}

// currentsPrequantized runs one cycle on weights and activations that
// are already on the DAC grids: qw holds fault-effective quantized
// weights (a compiled weight-program slot) and qa is a tap-major tile
// of quantized activations, qa[t*Nd+d]. It advances the same cycle
// counter and draws the same noise samples as Currents, so outputs
// are bit-identical to the quantize-on-entry path.
//
//hot:weight-stationary inner loop; must not allocate.
func (p *PLCU) currentsPrequantized(dst, qw, qa []float64) []float64 {
	p.cycles++
	return p.accumulate(dst, qw, qa)
}

// accumulate is the shared analog datapath: MZM scaling, MRR routing
// with crosstalk and ring faults, balanced detection, and noise. qw
// must already be quantized and fault-adjusted, and qa is a quantized
// tap-major Nm x Nd tile. The paper's five PD columns with crosstalk
// modeled run the fixed-width accumulate5; every other configuration
// runs accumulateGeneric, the reference the fixed-width kernel is
// tested against.
//
//hot:per-cycle datapath; must not allocate.
func (p *PLCU) accumulate(dst, qw, qa []float64) []float64 {
	if p.cfg.Nd == 5 && p.xt != nil {
		return p.accumulate5(dst, qw, qa)
	}
	return p.accumulateGeneric(dst, qw, qa)
}

// accumulateGeneric is the datapath for any column count, one column
// at a time.
//
//hot:generic per-column datapath loop; must not allocate.
func (p *PLCU) accumulateGeneric(dst, qw, qa []float64) []float64 {
	cfg := p.cfg
	nd := cfg.Nd
	for d := 0; d < nd; d++ {
		var pos, neg float64
		for t := 0; t < cfg.Nm; t++ {
			w := qw[t]
			if w == 0 {
				continue
			}
			mag, a := math.Abs(w), qa[t*nd:(t+1)*nd]
			// Intended signal: the ring for (t, d) drops its own
			// wavelength carrying |w| * a.
			sig := mag * a[d]
			// Crosstalk: the same ring couples a fraction of the other
			// columns' wavelengths riding tap t's bus.
			if p.xt != nil {
				row := p.xt[(t*nd+d)*nd : (t*nd+d+1)*nd]
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

// accumulate5 is the datapath for Nd = 5 with the crosstalk table
// present, written out over the five columns. It walks taps in the
// outer loop and keeps every column's positive and negative sums in
// registers, so each tap loads its weight, activation row and
// crosstalk coefficients once. Each column still sees exactly the
// generic loop's operations in the generic loop's order: taps
// ascending with zero weights skipped, the own-wavelength product
// first, the leakage terms (x*|w|)*a in ascending source column, then
// the ring gain, then the tap's sum into the sign rail. Noise is drawn
// afterwards in column order, which is the generic draw order because
// nothing else reads the unit's stream in between. The outputs are
// bit-identical to accumulateGeneric.
//
//hot:fixed-width Nd=5 datapath kernel; must not allocate.
func (p *PLCU) accumulate5(dst, qw, qa []float64) []float64 {
	const nd = 5
	var p0, p1, p2, p3, p4, n0, n1, n2, n3, n4 float64
	qw = qw[:p.cfg.Nm]
	for t, w := range qw {
		if w == 0 {
			continue
		}
		m := math.Abs(w)
		a := qa[t*nd : t*nd+nd : t*nd+nd]
		x := p.xt[t*nd*nd : (t+1)*nd*nd : (t+1)*nd*nd]
		a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
		// x[d*nd+dp] leaks column dp's wavelength into ring (t, d).
		s0 := m * a0
		s0 += x[1] * m * a1
		s0 += x[2] * m * a2
		s0 += x[3] * m * a3
		s0 += x[4] * m * a4
		s1 := m * a1
		s1 += x[5] * m * a0
		s1 += x[7] * m * a2
		s1 += x[8] * m * a3
		s1 += x[9] * m * a4
		s2 := m * a2
		s2 += x[10] * m * a0
		s2 += x[11] * m * a1
		s2 += x[13] * m * a3
		s2 += x[14] * m * a4
		s3 := m * a3
		s3 += x[15] * m * a0
		s3 += x[16] * m * a1
		s3 += x[17] * m * a2
		s3 += x[19] * m * a4
		s4 := m * a4
		s4 += x[20] * m * a0
		s4 += x[21] * m * a1
		s4 += x[22] * m * a2
		s4 += x[23] * m * a3
		if p.faults != nil {
			s0 *= p.ringGain(t, 0)
			s1 *= p.ringGain(t, 1)
			s2 *= p.ringGain(t, 2)
			s3 *= p.ringGain(t, 3)
			s4 *= p.ringGain(t, 4)
		}
		if w > 0 {
			p0 += s0
			p1 += s1
			p2 += s2
			p3 += s3
			p4 += s4
		} else {
			n0 += s0
			n1 += s1
			n2 += s2
			n3 += s3
			n4 += s4
		}
	}
	dst = dst[:nd]
	u := p.unitCurrent
	dst[0] = (p0 - n0) * u
	dst[1] = (p1 - n1) * u
	dst[2] = (p2 - n2) * u
	dst[3] = (p3 - n3) * u
	dst[4] = (p4 - n4) * u
	if !p.cfg.DisableNoise {
		for d := range dst {
			dst[d] += p.rng.NormFloat64() * p.sigma
		}
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
