package core

// convScratch is a PLCG-owned scratch arena for the chip's layer
// loops: the Nd-wide accumulator and step output, and the per-slot
// weight and activation-tile views, all allocated once at construction
// and reused for every tile of every layer.
//
// The arena belongs to exactly one PLCG because the layer fan-out
// (fanout.go) partitions kernels by owning group - one goroutine per
// PLCG at a time - so group-owned scratch needs no locking.
type convScratch struct {
	// acc accumulates partial dot products across channel groups and
	// tap chunks for the current Nd-wide output tile.
	acc []float64
	// part receives one stepPrequantized result.
	part []float64
	// weights[u] points at the compiled weight-program slot driving
	// healthy unit slot u this cycle.
	weights [][]float64
	// avals[u] points at slot u's activation tile in the chip's tile
	// plane (tiles.go).
	avals [][]float64
}

func newConvScratch(cfg Config) convScratch {
	return convScratch{
		acc:     make([]float64, cfg.Nd),
		part:    make([]float64, cfg.Nd),
		weights: make([][]float64, cfg.Nu),
		avals:   make([][]float64, cfg.Nu),
	}
}
