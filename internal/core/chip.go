package core

import (
	"fmt"

	"albireo/internal/quant"
	"albireo/internal/tensor"
)

// Chip is the functional model of the full Albireo accelerator
// (Figure 6a): Ng PLCGs fed by a broadcast of the same input signals,
// each applying a different kernel. Conv, Depthwise, Pointwise, and
// FullyConnected execute real layers through the analog pipeline,
// following the partitioning of Algorithm 2.
//
// The steady-state layer loops are weight-stationary and
// allocation-free: weight programs are compiled once per kernel
// tensor (see program.go), activations are normalized and
// DAC-quantized once per layer into a chip-owned scratch volume, and
// every per-tile buffer comes from the per-PLCG scratch arenas.
type Chip struct {
	cfg    Config
	groups []*PLCG
	ins    *chipObs
	// active lists the PLCG indices with healthy capacity, ascending:
	// the kernel round-robin targets. All groups until quarantined.
	active []int
	// aq mirrors the PLCUs' activation DAC so whole input volumes can
	// be pre-quantized once per layer instead of once per cycle.
	aq quant.Quantizer
	// qaVol is the chip-owned pre-quantized activation scratch; its
	// backing array grows to the largest layer seen and is then
	// reused.
	qaVol tensor.Volume
	// progs caches compiled weight programs keyed by kernel-tensor
	// identity and mapping kind.
	progs map[progKey]*weightProgram
	// schedEpoch advances on every quarantine transition, invalidating
	// compiled programs whose slot-to-unit assignment it changes.
	schedEpoch int64
	// posVol/negVol stage a GEMM activation matrix's positive and
	// negative parts (transposed into volume layout) for the signed
	// two-pass decomposition; gemmAcc is the pre-transpose output
	// scratch and bviews caches kernel-bank views of GEMM weight
	// matrices (see gemm.go). All grow once and are reused.
	posVol, negVol tensor.Volume
	gemmAcc        []float64
	bviews         map[*tensor.Matrix]*gemmView
	// job is the running layer's fan-out descriptor, reused by every
	// layer (see fanout.go).
	job layerJob
}

// NewChip builds a functional chip.
func NewChip(cfg Config) *Chip {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid config: %v", err)) //lint:ignore exit-hygiene constructor refuses a config Validate already rejected; caller bug
	}
	groups := make([]*PLCG, cfg.Ng)
	active := make([]int, cfg.Ng)
	for gi := range groups {
		gcfg := cfg
		gcfg.Seed = cfg.Seed*7919 + int64(gi)
		groups[gi] = NewPLCG(gcfg)
		active[gi] = gi
	}
	return &Chip{
		cfg:    cfg,
		groups: groups,
		active: active,
		aq:     quant.NewActivation(cfg.DACBits, 1),
	}
}

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// Groups exposes the PLCGs (read-only use).
func (c *Chip) Groups() []*PLCG { return c.groups }

// tapChunk is one pass worth of kernel taps: at most Nm positions.
type tapChunk struct {
	ky, kx []int
}

// tapChunks splits a KY x KX kernel footprint into row-major chunks of
// at most Nm taps, the "additional cycles" a kernel larger than the
// PLCU requires (Section III-A).
func (c *Chip) tapChunks(ky, kx int) []tapChunk {
	var chunks []tapChunk
	cur := tapChunk{}
	for y := 0; y < ky; y++ {
		for x := 0; x < kx; x++ {
			cur.ky = append(cur.ky, y)
			cur.kx = append(cur.kx, x)
			if len(cur.ky) == c.cfg.Nm {
				chunks = append(chunks, cur)
				cur = tapChunk{}
			}
		}
	}
	if len(cur.ky) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks
}

// prequantizeInput validates, normalizes, and DAC-quantizes the whole
// activation volume into the chip's scratch volume, returning it and
// the normalization scale. Negative activations are invalid: Albireo
// encodes activations as optical power (Section II-B), so inputs must
// be non-negative (post-ReLU, or pre-shifted images). Doing the
// quantization once per layer instead of once per cycle is
// bit-identical - quantization is a pure pointwise function - and
// removes it from the hot path entirely. A zero scale means an
// all-zero input; the scratch contents are unused in that case
// because callers early-return on a zero output scale.
func (c *Chip) prequantizeInput(a *tensor.Volume) (*tensor.Volume, float64) {
	for _, v := range a.Data {
		if v < 0 {
			panic("core: activations must be non-negative (optical power encoding)") //lint:ignore exit-hygiene non-negative activations are the optical power encoding invariant
		}
	}
	scale := a.MaxAbs()
	n := len(a.Data)
	if cap(c.qaVol.Data) < n {
		c.qaVol.Data = make([]float64, n)
	}
	c.qaVol.Data = c.qaVol.Data[:n]
	c.qaVol.Z, c.qaVol.Y, c.qaVol.X = a.Z, a.Y, a.X
	if scale == 0 {
		return &c.qaVol, 0
	}
	for i, v := range a.Data {
		c.qaVol.Data[i] = c.aq.Quantize(v / scale)
	}
	return &c.qaVol, scale
}

// Conv executes a convolution layer through the analog pipeline
// (Algorithm 2) and returns the output volume in the caller's value
// domain. Kernels are distributed round-robin over the PLCGs, which
// run concurrently (see fanout.go); output columns are produced Nd at
// a time; channels are aggregated Nu at a time; kernels larger than Nm
// take multiple tap chunks per channel group. If relu is true the
// activation is applied during aggregation write-back, as the hardware
// does.
func (c *Chip) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	if cfg.Depthwise {
		return c.depthwiseConv(a, w, cfg, relu)
	}
	if cfg.Groups != 0 && cfg.Groups != 1 {
		return c.groupedConv(a, w, cfg, relu)
	}
	if w.Z != a.Z {
		panic(fmt.Sprintf("core: kernel depth %d != input channels %d", w.Z, a.Z)) //lint:ignore exit-hygiene kernel/input shape invariant; caller bug
	}
	out := newConvOutput(a, w, cfg)
	c.windowLayer(progConv, a, w, cfg, relu, ShardSpec{}, out)
	return out
}

// convStride is the layer's stride; the zero value means 1.
func convStride(cfg tensor.ConvConfig) int {
	if cfg.Stride == 0 {
		return 1
	}
	return cfg.Stride
}

// newConvOutput allocates the output volume of a convolution layer.
func newConvOutput(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig) *tensor.Volume {
	stride := convStride(cfg)
	return tensor.NewVolume(w.M, tensor.ConvOutputDim(a.Y, w.Y, cfg.Pad, stride), tensor.ConvOutputDim(a.X, w.X, cfg.Pad, stride))
}

// windowLayer runs a dense (progConv) or depthwise (progDepthwise)
// convolution's owned kernels into out, whose shape the caller has
// checked.
func (c *Chip) windowLayer(kind programKind, a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool, shard ShardSpec, out *tensor.Volume) {
	qa, aScale := c.prequantizeInput(a)
	pr := c.programShard(kind, w, shard)
	name := "conv"
	if kind == progDepthwise {
		name = "depthwise"
	}
	sp := c.ins.beginLayer(name, w.M, w.Z, w.Y, w.X)
	defer sp.End()
	if outScale := aScale * pr.wScale; outScale != 0 {
		c.fanOut(layerArgs{window: true, depthwise: kind == progDepthwise, qa: qa, pr: pr, sp: sp, dst: out.Data, kernels: w.M,
			by: out.Y, bx: out.X, stride: convStride(cfg), pad: cfg.Pad, relu: relu, outScale: outScale, shard: shard})
	}
}

// windowKernel streams every output tile of kernel m through its
// owning PLCG: weights come from the compiled program, activations are
// gathered into the group's scratch arena, and partial sums accumulate
// across channel groups and tap chunks. A depthwise kernel reads only
// its own input channel m.
//
//hot: steady-state layer loop; per-tile work must not allocate.
func (j *layerJob) windowKernel(m int) {
	c, pr, nd := j.c, j.pr, j.c.cfg.Nd
	gi := c.assignGroup(m)
	g := c.groups[gi]
	nug := g.Capacity()
	sc := &g.conv
	c.ins.tile(j.sp, m, gi)
	zBase := 0
	if j.depthwise {
		zBase = m
	}
	nchunks := len(pr.chunks)
	for oy := 0; oy < j.by; oy++ {
		row := j.dst[(m*j.by+oy)*j.bx : (m*j.by+oy+1)*j.bx]
		for ox0 := 0; ox0 < j.bx; ox0 += nd {
			acc := sc.acc
			for d := range acc {
				acc[d] = 0
			}
			for z0 := 0; z0 < pr.zDim; z0 += nug {
				nu := min(nug, pr.zDim-z0)
				for ci := 0; ci < nchunks; ci++ {
					for u := 0; u < nu; u++ {
						sc.weights[u] = pr.slot(m, (z0+u)*nchunks+ci)
						fillWindow(sc.avals[u], j.qa, zBase+z0+u, oy, ox0, j.stride, j.pad, &pr.chunks[ci], nd)
					}
					part := g.stepPrequantized(sc.part, sc.weights[:nu], sc.avals[:nu])
					if c.ins != nil {
						c.ins.step(gi, nu)
					}
					for d := range acc {
						acc[d] += part[d]
					}
				}
			}
			for d := 0; d < nd && ox0+d < j.bx; d++ {
				v := acc[d] * j.outScale
				if j.relu && v < 0 {
					v = 0
				}
				row[ox0+d] = v
			}
		}
	}
}

// groupedConv runs a grouped convolution as independent dense
// convolutions over channel slices.
func (c *Chip) groupedConv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	groups := cfg.Groups
	if a.Z%groups != 0 || w.M%groups != 0 {
		panic(fmt.Sprintf("core: groups %d do not divide channels %d/%d", groups, a.Z, w.M)) //lint:ignore exit-hygiene group divisibility invariant; caller bug
	}
	zPer, mPer := a.Z/groups, w.M/groups
	out := newConvOutput(a, w, cfg)
	by, bx := out.Y, out.X
	for gi := 0; gi < groups; gi++ {
		sub := tensor.NewVolume(zPer, a.Y, a.X)
		for z := 0; z < zPer; z++ {
			for y := 0; y < a.Y; y++ {
				for x := 0; x < a.X; x++ {
					sub.Set(z, y, x, a.At(gi*zPer+z, y, x))
				}
			}
		}
		subW := tensor.NewKernels(mPer, w.Z, w.Y, w.X)
		copy(subW.Data, w.Data[gi*mPer*w.Z*w.Y*w.X:(gi+1)*mPer*w.Z*w.Y*w.X])
		subOut := c.Conv(sub, subW, tensor.ConvConfig{Stride: cfg.Stride, Pad: cfg.Pad}, relu)
		for m := 0; m < mPer; m++ {
			for y := 0; y < by; y++ {
				for x := 0; x < bx; x++ {
					out.Set(gi*mPer+m, y, x, subOut.At(m, y, x))
				}
			}
		}
	}
	return out
}

// depthwiseConv applies one single-channel kernel per input channel
// without cross-channel aggregation (Section III-C: "aggregation is
// not performed across channels for depthwise kernels").
func (c *Chip) depthwiseConv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	if w.M != a.Z || w.Z != 1 {
		panic("core: depthwise wants one depth-1 kernel per input channel") //lint:ignore exit-hygiene depthwise kernel shape invariant; caller bug
	}
	out := newConvOutput(a, w, cfg)
	c.windowLayer(progDepthwise, a, w, cfg, relu, ShardSpec{}, out)
	return out
}

// Pointwise executes a 1x1 convolution with the Section III-C
// pointwise mapping: each PLCU tap carries one input channel, each PD
// column one output pixel, and channel aggregation happens across taps
// and PLCUs.
func (c *Chip) Pointwise(a *tensor.Volume, w *tensor.Kernels, relu bool) *tensor.Volume {
	if w.Y != 1 || w.X != 1 || w.Z != a.Z {
		panic("core: pointwise wants 1x1 kernels of full depth") //lint:ignore exit-hygiene pointwise kernel shape invariant; caller bug
	}
	out := tensor.NewVolume(w.M, a.Y, a.X)
	c.blockLayer("pointwise", a, w, a.Z, a.Y*a.X, relu, ShardSpec{}, out.Data)
	return out
}

// FullyConnected executes an FC layer: each output neuron's kernel
// covers the whole input volume (Section III-C). Only one PD column
// does useful work per PLCU (no parameter sharing); the others carry
// zero activations.
func (c *Chip) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	if w.Z != a.Z || w.Y != a.Y || w.X != a.X {
		panic("core: FC kernel shape must match the input volume") //lint:ignore exit-hygiene FC kernel shape invariant; caller bug
	}
	out := make([]float64, w.M)
	c.blockLayer("fc", a, w, a.Z*a.Y*a.X, 1, relu, ShardSpec{}, out)
	return out
}

// blockLayer runs a pointwise (npix pixels of nz channels) or FC (one
// pixel of every input element) layer's owned kernels into dst.
func (c *Chip) blockLayer(name string, a *tensor.Volume, w *tensor.Kernels, nz, npix int, relu bool, shard ShardSpec, dst []float64) {
	qa, aScale := c.prequantizeInput(a)
	pr := c.programShard(progBlock, w, shard)
	sp := c.ins.beginLayer(name, w.M, w.Z, w.Y, w.X)
	defer sp.End()
	if outScale := aScale * pr.wScale; outScale != 0 {
		c.fanOut(layerArgs{qa: qa, pr: pr, sp: sp, dst: dst, kernels: w.M, nz: nz, npix: npix, relu: relu, outScale: outScale, shard: shard})
	}
}

// blockKernel streams kernel m's npix output pixels through its owning
// PLCG under the Section III-C block mapping shared by pointwise, FC
// and GEMM layers: each PLCU tap carries one of the nz reduction
// elements, each PD column one pixel, and blocks of Nm elements
// round-robin over the group's healthy units.
//
//hot: steady-state layer loop; per-tile work must not allocate.
func (j *layerJob) blockKernel(m int) {
	c, pr, npix := j.c, j.pr, j.npix
	nm, nd := c.cfg.Nm, c.cfg.Nd
	gi := c.assignGroup(m)
	g := c.groups[gi]
	nug := g.Capacity()
	sc := &g.conv
	c.ins.tile(j.sp, m, gi)
	dst := j.dst[m*npix : (m+1)*npix]
	for p0 := 0; p0 < npix; p0 += nd {
		acc := sc.acc
		for d := range acc {
			acc[d] = 0
		}
		for b0 := 0; b0 < pr.slotsPer; b0 += nug {
			nu := min(nug, pr.slotsPer-b0)
			for u := 0; u < nu; u++ {
				b := b0 + u
				sc.weights[u] = pr.slot(m, b)
				for t, row := range sc.avals[u] {
					z := b*nm + t
					for d := range row {
						if z < j.nz && p0+d < npix {
							row[d] = j.qa.Data[z*npix+p0+d]
						} else {
							row[d] = 0
						}
					}
				}
			}
			part := g.stepPrequantized(sc.part, sc.weights[:nu], sc.avals[:nu])
			if c.ins != nil {
				c.ins.step(gi, nu)
			}
			for d := range acc {
				acc[d] += part[d]
			}
		}
		for d := 0; d < nd && p0+d < npix; d++ {
			v := acc[d] * j.outScale
			switch {
			case j.subtract:
				dst[p0+d] -= v
			case j.relu && v < 0:
				dst[p0+d] = 0
			default:
				dst[p0+d] = v
			}
		}
	}
}
