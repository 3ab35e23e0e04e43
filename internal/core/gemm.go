package core

import (
	"math"

	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// GEMM on the photonic fabric.
//
// The PLCU dot-product path is a general multiply-accumulate engine
// that the conv layers drive with receptive-field windows; GEMM drives
// it with matrix rows instead. An M x K by K x N product maps onto the
// Section III-C block (pointwise) layout:
//
//   - the weight matrix B becomes a bank of N 1x1 kernels of depth K
//     (B transposed), compiled through the weight-program cache so the
//     DAC grids, StuckMZM transfers, and quarantine schedule are baked
//     in exactly as for a pointwise layer;
//   - the activation matrix A becomes a K-channel volume of M "pixels"
//     (A transposed): each PD column carries one output row, each tap
//     one reduction-dimension element, and blocks of Nm elements
//     round-robin over a PLCG's healthy PLCUs;
//   - kernels (output columns) round-robin over the Ng PLCGs through
//     the quarantine-aware assignGroup, so remap and the fault model
//     apply unchanged.
//
// Activations are optical power and cannot be negative, but GEMM
// inputs (hidden states, attention scores) are signed. The chip
// decomposes A = A+ - A- elementwise and runs the block loop twice,
// subtracting the second pass in the digital aggregation unit. A
// non-negative A has an all-zero A-, whose normalization scale is 0;
// that pass early-returns before any PLCG cycle (zero noise draws), so
// a non-negative GEMM is bit-identical to the same product formulated
// as a Pointwise layer - the Conv-equivalence the golden matrix pins.

// maxCachedViews bounds the chip's kernel-bank view cache for GEMM
// weight matrices. Like the program cache it is cleared wholesale once
// full rather than tracking liveness.
const maxCachedViews = 64

// gemmView is the chip-owned kernel-bank view of one GEMM weight
// matrix: a stable *tensor.Kernels identity so the weight-program
// cache keys stay valid across calls with the same B.
type gemmView struct {
	k *tensor.Kernels
}

// bviewFor returns the chip's kernel-bank view of B (transposed:
// kernel n's channel z carries B[z][n]), reusing the cached view's
// backing tensor so programShard sees a stable pointer. A mutated B is
// detected by exact bit compare and re-transposed in place, which in
// turn invalidates the compiled program via its own bit-compare.
func (c *Chip) bviewFor(b *tensor.Matrix) *tensor.Kernels {
	if v, ok := c.bviews[b]; ok && v.k.M == b.C && v.k.Z == b.R {
		if !viewFresh(v.k, b) {
			transposeInto(v.k, b)
		}
		return v.k
	}
	k := tensor.NewKernels(b.C, b.R, 1, 1)
	transposeInto(k, b)
	if c.bviews == nil {
		c.bviews = make(map[*tensor.Matrix]*gemmView)
	}
	if len(c.bviews) >= maxCachedViews {
		clear(c.bviews)
	}
	c.bviews[b] = &gemmView{k: k}
	return k
}

// viewFresh reports whether the cached kernel view still matches B bit
// for bit (NaN-safe, like the program cache's sameBits).
func viewFresh(k *tensor.Kernels, b *tensor.Matrix) bool {
	for z := 0; z < b.R; z++ {
		row := b.Data[z*b.C : (z+1)*b.C]
		for n, w := range row {
			if math.Float64bits(k.Data[n*b.R+z]) != math.Float64bits(w) {
				return false
			}
		}
	}
	return true
}

// transposeInto writes B^T into the kernel bank's backing array.
func transposeInto(k *tensor.Kernels, b *tensor.Matrix) {
	for z := 0; z < b.R; z++ {
		row := b.Data[z*b.C : (z+1)*b.C]
		for n, w := range row {
			k.Data[n*b.R+z] = w
		}
	}
}

// growVolume resizes a chip-owned scratch volume in place, growing the
// backing array only when the new shape exceeds its capacity.
func growVolume(v *tensor.Volume, z, y, x int) {
	n := z * y * x
	if cap(v.Data) < n {
		v.Data = make([]float64, n)
	}
	v.Data = v.Data[:n]
	v.Z, v.Y, v.X = z, y, x
}

// stageSigned splits A elementwise into its positive part and negated
// negative part - both optical-power encodable - staged transposed
// into the chip's scratch volumes (channel = reduction index, pixel =
// matrix row).
func (c *Chip) stageSigned(a *tensor.Matrix) {
	k, m := a.C, a.R
	growVolume(&c.posVol, k, 1, m)
	growVolume(&c.negVol, k, 1, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*k : (i+1)*k]
		for z, v := range row {
			p, n := v, 0.0
			if v < 0 {
				p, n = 0, -v
			}
			c.posVol.Data[z*m+i] = p
			c.negVol.Data[z*m+i] = n
		}
	}
}

// GEMM executes the matrix product a (M x K) times b (K x N) through
// the analog pipeline and returns the M x N result in the caller's
// value domain. Weights may be signed (the balanced-photodiode
// differential handles sign); signed activations run as two
// positive-only passes combined digitally. If relu is true, max(0, x)
// is applied during aggregation write-back.
func (c *Chip) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	out := tensor.NewMatrix(a.R, b.C)
	c.GEMMShard(a, b, relu, ShardSpec{}, out)
	return out
}

// gemmPass streams one sign component of the staged activation matrix
// (K channels of M pixels) through the block mapping - the Pointwise
// layer loop with matrix rows as pixels. The first (positive) pass
// assigns dst so a skipped negative pass leaves pointwise-identical
// bits; the negative pass subtracts in the digital aggregation unit.
func (c *Chip) gemmPass(part *tensor.Volume, pr *weightProgram, sp *obs.Span, dst []float64, shard ShardSpec, subtract bool) {
	qa, aScale := c.prequantizeInput(part)
	if s := aScale * pr.wScale; s != 0 {
		c.fanOut(layerArgs{qa: qa, pr: pr, sp: sp, dst: dst, kernels: pr.m, nz: qa.Z, npix: qa.X, outScale: s, subtract: subtract, shard: shard})
	}
}
