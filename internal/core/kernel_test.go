package core

import (
	"math"
	"math/rand"
	"testing"
)

// kernelInputs draws one cycle's pre-quantized weights and activation
// tile: weights signed, zero or full-scale, activations zero,
// full-scale or anywhere on the DAC grid.
func kernelInputs(rng *rand.Rand, p *PLCU, qw, qa []float64) {
	for t := range qw {
		switch rng.Intn(5) {
		case 0:
			qw[t] = 0
		case 1:
			qw[t] = 1
		case 2:
			qw[t] = -1
		default:
			qw[t] = p.quantizeWeight(2*rng.Float64() - 1)
		}
	}
	for i := range qa {
		switch rng.Intn(4) {
		case 0:
			qa[i] = 0
		case 1:
			qa[i] = 1
		default:
			qa[i] = p.aq.Quantize(rng.Float64())
		}
	}
}

// TestAccumulate5MatchesGeneric checks that the fixed-width Nd=5
// kernel and the generic per-column loop give identical bits, cycle
// after cycle, on twin units: first healthy, then with dead rings,
// stacked detuned rings, and detuned rings drifting towards (and
// clamping at) zero coupling, with noise on and off. The twins share a
// seed, so any difference in draw order shows up as a bit difference.
func TestAccumulate5MatchesGeneric(t *testing.T) {
	t.Parallel()
	faults := []Fault{
		{Kind: DeadRing, Tap: 0, Column: 0},
		{Kind: DeadRing, Tap: 4, Column: 2},
		{Kind: DetunedRing, Tap: 8, Column: 4, Value: 0.6},
		{Kind: DetunedRing, Tap: 3, Column: 1, Value: 0.9, Drift: 2e-4},
		{Kind: DetunedRing, Tap: 3, Column: 1, Value: 0.8},
		{Kind: DetunedRing, Tap: 6, Column: 3, Value: 0.9, Drift: 5e-4},
	}
	for _, noisy := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DisableNoise = !noisy
		cfg.Seed = 17
		fast, ref := NewPLCU(cfg), NewPLCU(cfg)
		rng := rand.New(rand.NewSource(5))
		qw := make([]float64, cfg.Nm)
		qa := make([]float64, cfg.Nm*cfg.Nd)
		got := make([]float64, cfg.Nd)
		want := make([]float64, cfg.Nd)
		for cycle := 0; cycle < 3000; cycle++ {
			if cycle == 500 {
				for _, f := range faults {
					fast.InjectFault(f)
					ref.InjectFault(f)
				}
			}
			kernelInputs(rng, fast, qw, qa)
			fast.cycles++
			ref.cycles++
			fast.accumulate5(got, qw, qa)
			ref.accumulateGeneric(want, qw, qa)
			for d := range want {
				if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
					t.Fatalf("noise=%v cycle %d column %d: kernel %v, generic %v", noisy, cycle, d, got[d], want[d])
				}
			}
		}
	}
}

// BenchmarkAccumulate times one unit-cycle of the datapath on the
// fixed-width kernel and on the generic loop, with crosstalk and
// noise on.
func BenchmarkAccumulate(b *testing.B) {
	cfg := DefaultConfig()
	p := NewPLCU(cfg)
	rng := rand.New(rand.NewSource(1))
	qw := make([]float64, cfg.Nm)
	qa := make([]float64, cfg.Nm*cfg.Nd)
	kernelInputs(rng, p, qw, qa)
	dst := make([]float64, cfg.Nd)
	b.Run("fixed5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.accumulate5(dst, qw, qa)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.accumulateGeneric(dst, qw, qa)
		}
	})
}
