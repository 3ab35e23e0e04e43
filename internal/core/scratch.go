package core

import "albireo/internal/tensor"

// convScratch is a PLCG-owned scratch arena for the chip's layer
// loops: the Nd-wide accumulator and step output, the per-slot weight
// vector pointers, and the per-slot activation matrices, all allocated
// once at construction and reused for every tile of every layer. The
// activation rows share one backing array for locality.
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
	// weights[u] points at the compiled weight-program slot (or staged
	// weight vector) driving healthy unit slot u this cycle.
	weights [][]float64
	// avals[u][t][d] stages the quantized activations for slot u.
	avals [][][]float64
}

func newConvScratch(cfg Config) convScratch {
	sc := convScratch{
		acc:     make([]float64, cfg.Nd),
		part:    make([]float64, cfg.Nd),
		weights: make([][]float64, cfg.Nu),
		avals:   make([][][]float64, cfg.Nu),
	}
	rowData := make([]float64, cfg.Nu*cfg.Nm*cfg.Nd)
	for u := 0; u < cfg.Nu; u++ {
		rows := make([][]float64, cfg.Nm)
		for t := 0; t < cfg.Nm; t++ {
			off := (u*cfg.Nm + t) * cfg.Nd
			rows[t] = rowData[off : off+cfg.Nd : off+cfg.Nd]
		}
		sc.avals[u] = rows
	}
	return sc
}

// fillWindow gathers the receptive field of one kernel channel into a
// slot's activation rows: row t column d reads the (pre-quantized)
// activation at tap t of chunk ch for output column ox0+d. Rows past
// the chunk's tap count are zeroed explicitly - their compiled weight
// codes can be non-zero under StuckMZM faults or the voltage-domain
// DAC grid, so stale scratch there would leak into the output.
//
//hot: per-tile activation gather; must not allocate.
func fillWindow(dst [][]float64, a *tensor.Volume, z, oy, ox0, stride, pad int, ch *tapChunk, nd int) {
	ay0 := oy*stride - pad
	for t, row := range dst {
		if t >= len(ch.ky) {
			for d := range row {
				row[d] = 0
			}
			continue
		}
		ay := ay0 + ch.ky[t]
		kx := ch.kx[t]
		for d := 0; d < nd; d++ {
			row[d] = a.AtPadded(z, ay, (ox0+d)*stride-pad+kx)
		}
	}
}
