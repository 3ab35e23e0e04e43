package core

import (
	"math"

	"albireo/internal/tensor"
)

// The hardware programs a kernel's weight MZMs once and then streams
// the whole output plane through them (Algorithm 2's weight-stationary
// depth-first dataflow); only the activations change cycle to cycle.
// A weightProgram is the software mirror of that: the DAC-quantized,
// fault-effective weight code for every slot the layer will ever
// drive, compiled once per (kernel tensor, mapping kind) and reused
// across all output positions - and across layers, since CNNs run the
// same weights on every inference.
//
// A compiled program bakes in three kinds of state and is invalidated
// when any of them changes:
//
//   - the kernel values themselves (detected by an exact bit compare
//     against a private snapshot, since callers may mutate tensors),
//   - the quarantine schedule, which decides which PLCU quantizes each
//     slot (chip.schedEpoch advances on Quarantine/ClearQuarantine),
//   - injected faults, whose StuckMZM transfers are folded into the
//     codes (the per-PLCU faultEpoch sum advances on InjectFault and
//     ClearFaults, including direct PLCU-level injection).
//
// Ring faults (DeadRing/DetunedRing) act on the activation side of the
// datapath and drift with the cycle counter, so they are deliberately
// not compiled in; PLCU.accumulate applies them per cycle.

// programKind selects the slot layout a weight program is compiled
// for.
type programKind uint8

const (
	// progConv lays out slots [m][z][chunk]: dense convolution, one
	// slot per kernel channel per tap chunk.
	progConv programKind = iota
	// progDepthwise lays out slots [m][chunk]: one depth-1 kernel per
	// input channel, always driving the group's first healthy unit.
	progDepthwise
	// progBlock lays out slots [m][block]: the pointwise/FC mapping,
	// where each tap carries one flattened input element and blocks of
	// Nm elements round-robin over the group's healthy units.
	progBlock
)

// progKey identifies a cached program: the kernel tensor identity, the
// mapping kind, and the (normalized) kernel-group shard it was
// compiled for. Whole-layer shards normalize to the zero ShardSpec so
// sharded and unsharded execution of a full slice share one entry.
type progKey struct {
	w     *tensor.Kernels
	kind  programKind
	shard ShardSpec
}

// maxCachedPrograms bounds the chip's program cache. Grouped
// convolutions compile ephemeral per-group kernel slices, so the cache
// is cleared wholesale once it fills rather than tracking liveness.
const maxCachedPrograms = 64

// weightProgram is one compiled layer's weight codes.
type weightProgram struct {
	// wScale is the kernel normalization scale (MaxAbs). Zero means
	// the layer is all zeros; no codes are compiled and callers
	// early-return on a zero output scale.
	wScale float64
	// m, z, y, x snapshot the kernel geometry the program was compiled
	// from.
	m, z, y, x int
	// src is a private copy of the kernel data for staleness
	// detection.
	src []float64
	// chunks is the tap chunking of the kernel footprint (conv and
	// depthwise layouts).
	chunks []tapChunk
	// nm is the slot width (Config.Nm).
	nm int
	// zDim is the per-kernel channel extent of the conv layout (w.Z;
	// 1 for depthwise).
	zDim int
	// slotsPer is the number of slots per kernel.
	slotsPer int
	// codes holds slotsPer*nm fault-effective quantized weights per
	// kernel, contiguous per slot.
	codes []float64
	// schedEpoch and faultEpoch record the chip state the program was
	// compiled under.
	schedEpoch int64
	faultEpoch int64
}

// slot returns the compiled weight vector of slot s of kernel m, with
// capacity clamped so callers cannot append into a neighbor.
func (pr *weightProgram) slot(m, s int) []float64 {
	base := (m*pr.slotsPer + s) * pr.nm
	return pr.codes[base : base+pr.nm : base+pr.nm]
}

// sameBits reports exact bit equality of two float slices. Comparing
// representations (not values) keeps the check NaN-safe: a changed
// NaN payload forces a rebuild, the conservative direction.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// faultEpochSum folds every PLCU's fault epoch into one cache
// validity token. A sum is enough: epochs only ever advance.
func (c *Chip) faultEpochSum() int64 {
	var s int64
	for _, g := range c.groups {
		for _, u := range g.units {
			s += u.faultEpoch
		}
	}
	return s
}

// programShard returns the compiled weight program for (w, kind) and
// a kernel-group shard, reusing the cached compilation when the kernel
// bits, quarantine schedule, and fault state are all unchanged. The
// program covers only the shard's owned kernels (unowned slots stay
// zero, so slot indexing is unchanged), which makes per-shard compile
// time and cache footprint proportional to the owned slice.
func (c *Chip) programShard(kind programKind, w *tensor.Kernels, shard ShardSpec) *weightProgram {
	shard = normalizeShard(shard)
	key := progKey{w: w, kind: kind, shard: shard}
	fe := c.faultEpochSum()
	if pr, ok := c.progs[key]; ok &&
		pr.schedEpoch == c.schedEpoch && pr.faultEpoch == fe &&
		pr.m == w.M && pr.z == w.Z && pr.y == w.Y && pr.x == w.X &&
		sameBits(pr.src, w.Data) {
		return pr
	}
	pr := c.compileProgram(kind, w, shard)
	pr.schedEpoch, pr.faultEpoch = c.schedEpoch, fe
	if c.progs == nil {
		c.progs = make(map[progKey]*weightProgram)
	}
	if len(c.progs) >= maxCachedPrograms {
		clear(c.progs)
	}
	c.progs[key] = pr
	return pr
}

// compileProgram quantizes every slot's weight vector through the
// exact unit that will drive it under the current quarantine schedule,
// folding in that unit's DAC grid (value-uniform or voltage-domain)
// and StuckMZM transfers. The per-slot unit assignment mirrors the
// layer loops: conv slot (m, z) lands on group activeGroup(m), unit
// avail[z % capacity]; depthwise drives avail[0]; block layouts
// round-robin blocks over avail. A non-whole shard compiles only its
// owned kernels; the codes array stays full-size (unowned slots zero)
// so slot(m, s) indexing is layout-independent.
func (c *Chip) compileProgram(kind programKind, w *tensor.Kernels, shard ShardSpec) *weightProgram {
	pr := &weightProgram{
		wScale: w.MaxAbs(),
		m:      w.M, z: w.Z, y: w.Y, x: w.X,
		src: append([]float64(nil), w.Data...),
		nm:  c.cfg.Nm,
	}
	if pr.wScale == 0 {
		return pr
	}
	switch kind {
	case progConv:
		pr.chunks = c.tapChunks(w.Y, w.X)
		pr.zDim = w.Z
		pr.slotsPer = w.Z * len(pr.chunks)
		pr.codes = make([]float64, w.M*pr.slotsPer*pr.nm)
		for m := 0; m < w.M; m++ {
			if !shard.Owns(m) {
				continue
			}
			g := c.groups[c.activeGroup(m)]
			nug := g.Capacity()
			for z := 0; z < w.Z; z++ {
				unit := g.units[g.avail[z%nug]]
				for ci := range pr.chunks {
					pr.compileSlot(pr.slot(m, z*len(pr.chunks)+ci), unit, w, m, z, &pr.chunks[ci])
				}
			}
		}
	case progDepthwise:
		pr.chunks = c.tapChunks(w.Y, w.X)
		pr.zDim = 1
		pr.slotsPer = len(pr.chunks)
		pr.codes = make([]float64, w.M*pr.slotsPer*pr.nm)
		for m := 0; m < w.M; m++ {
			if !shard.Owns(m) {
				continue
			}
			g := c.groups[c.activeGroup(m)]
			unit := g.units[g.avail[0]]
			for ci := range pr.chunks {
				pr.compileSlot(pr.slot(m, ci), unit, w, m, 0, &pr.chunks[ci])
			}
		}
	case progBlock:
		n := w.Z * w.Y * w.X
		pr.slotsPer = (n + pr.nm - 1) / pr.nm
		pr.codes = make([]float64, w.M*pr.slotsPer*pr.nm)
		for m := 0; m < w.M; m++ {
			if !shard.Owns(m) {
				continue
			}
			g := c.groups[c.activeGroup(m)]
			nug := g.Capacity()
			for b := 0; b < pr.slotsPer; b++ {
				unit := g.units[g.avail[b%nug]]
				slot := pr.slot(m, b)
				for t := 0; t < pr.nm; t++ {
					var nw float64
					if e := b*pr.nm + t; e < n {
						nw = w.Data[m*n+e] / pr.wScale
					}
					slot[t] = unit.effectiveWeight(t, unit.quantizeWeight(nw))
				}
			}
		}
	}
	return pr
}

// compileSlot fills one conv/depthwise slot: the chunk's taps carry
// the normalized kernel values, taps past the chunk carry weight
// zero - which still quantizes through the unit's DAC grid and fault
// set, exactly as the quantize-on-entry path does.
func (pr *weightProgram) compileSlot(slot []float64, unit *PLCU, w *tensor.Kernels, m, z int, ch *tapChunk) {
	for t := range slot {
		var nw float64
		if t < len(ch.ky) {
			nw = w.At(m, z, ch.ky[t], ch.kx[t]) / pr.wScale
		}
		slot[t] = unit.effectiveWeight(t, unit.quantizeWeight(nw))
	}
}
