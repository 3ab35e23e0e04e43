package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"albireo/internal/tensor"
)

// The golden matrix pins the analog pipeline's exact output bits
// across every mapping kind, impairment, fault class, and quarantine
// state. The hashes below were captured from the implementation as of
// PR 4 (before the zero-allocation hot-path rewrite); the optimized
// scratch-arena + weight-program-cache paths must reproduce them bit
// for bit. Regenerate with:
//
//	ALBIREO_GOLDEN_UPDATE=1 go test ./internal/core -run TestGoldenOutputs -v
//
// and paste the printed table - but only when an intentional modeling
// change (new noise term, different quantizer) makes the old bits
// wrong on purpose.

// goldenHash folds a float64 slice into an order-sensitive FNV-1a
// hash of the raw IEEE-754 bits: any single-ULP divergence changes it.
func goldenHash(data []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range data {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * uint(i)))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenCase is one pinned scenario: a chip configuration, a layer,
// and the expected output-bits hash.
type goldenCase struct {
	name string
	want uint64
	run  func() []float64
}

func goldenMatrix() []goldenCase {
	dense := func(cfg Config, az, ay, ax, m, ky, kx, stride, pad int, relu bool, seed int64, prep func(*Chip)) func() []float64 {
		return func() []float64 {
			chip := NewChip(cfg)
			if prep != nil {
				prep(chip)
			}
			a := tensor.RandomVolume(az, ay, ax, seed)
			w := tensor.RandomKernels(m, az, ky, kx, seed+1)
			return chip.Conv(a, w, tensor.ConvConfig{Stride: stride, Pad: pad}, relu).Data
		}
	}
	cfg := DefaultConfig()
	quiet := DefaultConfig()
	quiet.DisableNoise = true
	voltage := DefaultConfig()
	voltage.VoltageDomainWeights = true

	return []goldenCase{
		{name: "conv/s1p1relu", want: 0x5af577f95cd683af, run: dense(cfg, 6, 10, 10, 4, 3, 3, 1, 1, true, 3, nil)},
		{name: "conv/s2p0", want: 0xd74f0fe6d44b80ed, run: dense(cfg, 5, 9, 9, 3, 3, 3, 2, 0, false, 11, nil)},
		// Conv is the goroutine-per-group path, so conv/concurrent and
		// conv/quarantined-concurrent repeat their serial twins' hashes.
		{name: "conv/concurrent", want: 0x5af577f95cd683af, run: dense(cfg, 6, 10, 10, 4, 3, 3, 1, 1, true, 3, nil)},
		{name: "conv/5x5chunked", want: 0x284ace40e5917b5d, run: dense(cfg, 3, 12, 12, 2, 5, 5, 1, 2, true, 7, nil)},
		{name: "conv/noiseless", want: 0xea33dffd9758d61b, run: dense(quiet, 6, 10, 10, 4, 3, 3, 1, 1, true, 3, nil)},
		{name: "conv/voltage-domain", want: 0x37064b3756ff7884, run: dense(voltage, 6, 10, 10, 4, 3, 3, 1, 1, true, 3, nil)},
		{name: "conv/faulty", want: 0xe76ecc0aef12a3de, run: dense(cfg, 6, 10, 10, 4, 3, 3, 1, 1, true, 3, func(c *Chip) {
			mustFault(c, 0, 0, Fault{Kind: StuckMZM, Tap: 2, Value: 0.7})
			mustFault(c, 1, 1, Fault{Kind: DeadRing, Tap: 4, Column: 1})
			mustFault(c, 2, 2, Fault{Kind: DetunedRing, Tap: 6, Column: 3, Value: 0.9, Drift: 1e-4})
		})},
		{name: "conv/quarantined", want: 0x203722e2d7a9b685, run: dense(cfg, 6, 10, 10, 4, 3, 3, 1, 1, true, 3, func(c *Chip) {
			mustQuarantine(c, 1, 0)
			mustQuarantine(c, 3, 1)
			mustQuarantine(c, 3, 2)
		})},
		{name: "conv/quarantined-concurrent", want: 0x203722e2d7a9b685, run: dense(cfg, 6, 10, 10, 4, 3, 3, 1, 1, true, 3, func(c *Chip) {
			mustQuarantine(c, 1, 0)
			mustQuarantine(c, 3, 1)
			mustQuarantine(c, 3, 2)
		})},
		{name: "conv/repeat-reuses-program", want: 0xa59e2a81dbdd64f5, run: func() []float64 {
			// Two layers back to back through one chip: the second
			// call sees a warm weight-program cache and a dirty
			// scratch arena, and must still produce exactly the bits
			// a cold chip's second call produces.
			chip := NewChip(cfg)
			a := tensor.RandomVolume(6, 10, 10, 3)
			w := tensor.RandomKernels(4, 6, 3, 3, 4)
			chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
			return chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true).Data
		}},
		{name: "conv/fault-after-cache", want: 0xdabdabe9a72b8e3c, run: func() []float64 {
			// A fault injected between two identical layers must
			// invalidate the cached weight program: the second call's
			// bits reflect the stuck modulator.
			chip := NewChip(cfg)
			a := tensor.RandomVolume(6, 10, 10, 3)
			w := tensor.RandomKernels(4, 6, 3, 3, 4)
			chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
			mustFault(chip, 0, 0, Fault{Kind: StuckMZM, Tap: 1, Value: 0.4})
			return chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true).Data
		}},
		{name: "conv/quarantine-after-cache", want: 0xf0549ec9afb1c2c9, run: func() []float64 {
			// Quarantine between identical layers reshapes the slot
			// schedule; a stale program would drive the wrong units.
			chip := NewChip(cfg)
			a := tensor.RandomVolume(6, 10, 10, 3)
			w := tensor.RandomKernels(4, 6, 3, 3, 4)
			chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
			mustQuarantine(chip, 0, 1)
			return chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true).Data
		}},
		{name: "depthwise", want: 0x6dae79418bb96e29, run: func() []float64 {
			chip := NewChip(cfg)
			a := tensor.RandomVolume(5, 8, 8, 21)
			w := tensor.RandomKernels(5, 1, 3, 3, 22)
			return chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1, Depthwise: true}, true).Data
		}},
		{name: "grouped", want: 0x1ae1608c62cf06ee, run: func() []float64 {
			chip := NewChip(cfg)
			a := tensor.RandomVolume(6, 8, 8, 31)
			w := tensor.RandomKernels(4, 3, 3, 3, 32)
			return chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1, Groups: 2}, false).Data
		}},
		{name: "pointwise", want: 0x66b864cc9e40250f, run: func() []float64 {
			chip := NewChip(cfg)
			a := tensor.RandomVolume(6, 7, 7, 41)
			w := tensor.RandomKernels(7, 6, 1, 1, 42)
			return chip.Pointwise(a, w, true).Data
		}},
		{name: "fc", want: 0x584997aefa3f4537, run: func() []float64 {
			chip := NewChip(cfg)
			a := tensor.RandomVolume(4, 5, 5, 51)
			w := tensor.RandomKernels(6, 4, 5, 5, 52)
			return chip.FullyConnected(a, w, true)
		}},
		{name: "gemm/signed", want: 0x87ed2cb3c8a55fd9, run: func() []float64 {
			chip := NewChip(cfg)
			a := tensor.RandomMatrix(10, 14, 61)
			b := tensor.RandomMatrix(14, 8, 62)
			return chip.GEMM(a, b, false).Data
		}},
		{name: "gemm/nonneg-relu", want: 0xf26389ec88f4a778, run: func() []float64 {
			chip := NewChip(cfg)
			a := tensor.RandomNonNegMatrix(9, 12, 63)
			b := tensor.RandomMatrix(12, 7, 64)
			return chip.GEMM(a, b, true).Data
		}},
		{name: "gemm/faulty", want: 0xa189f5a7cb6d1c91, run: func() []float64 {
			chip := NewChip(cfg)
			mustFault(chip, 0, 0, Fault{Kind: StuckMZM, Tap: 2, Value: 0.7})
			mustFault(chip, 2, 1, Fault{Kind: DeadRing, Tap: 3, Column: 1})
			a := tensor.RandomMatrix(10, 14, 61)
			b := tensor.RandomMatrix(14, 8, 62)
			return chip.GEMM(a, b, false).Data
		}},
		{name: "gemm/quarantined", want: 0x7c316eddd9ce074c, run: func() []float64 {
			chip := NewChip(cfg)
			mustQuarantine(chip, 1, 0)
			mustQuarantine(chip, 3, 1)
			a := tensor.RandomMatrix(10, 14, 61)
			b := tensor.RandomMatrix(14, 8, 62)
			return chip.GEMM(a, b, false).Data
		}},
		{name: "gemm/repeat-reuses-program", want: 0xb3f9395a5db9f762, run: func() []float64 {
			// Two products back to back through one chip: the second
			// call sees a warm kernel-bank view and weight program and
			// must produce exactly the bits a cold chip's second call
			// would.
			chip := NewChip(cfg)
			a := tensor.RandomMatrix(10, 14, 61)
			b := tensor.RandomMatrix(14, 8, 62)
			chip.GEMM(a, b, false)
			return chip.GEMM(a, b, false).Data
		}},
		// Kernel-group shards run only their owned residue classes, so
		// the fan-out skips whole group positions; hashes captured from
		// the serial kernel loops.
		{name: "shard/conv", want: 0x197d9b7ed8c0ba79, run: func() []float64 {
			out := tensor.NewVolume(13, 10, 10)
			NewChip(cfg).ConvShard(tensor.RandomVolume(6, 10, 10, 71), tensor.RandomKernels(13, 6, 3, 3, 72),
				tensor.ConvConfig{Stride: 1, Pad: 1}, true, ShardSpec{Pos: 2, Count: 4, Of: 9}, out)
			return out.Data
		}},
		{name: "shard/pointwise", want: 0xa12ae39d4d1d78f1, run: func() []float64 {
			out := tensor.NewVolume(10, 10, 10)
			NewChip(cfg).ConvShard(tensor.RandomVolume(6, 10, 10, 71), tensor.RandomKernels(10, 6, 1, 1, 73),
				tensor.ConvConfig{Stride: 1}, true, ShardSpec{Pos: 0, Count: 5, Of: 9}, out)
			return out.Data
		}},
		{name: "shard/fc", want: 0x7479744ad77ee805, run: func() []float64 {
			out := make([]float64, 11)
			NewChip(cfg).FullyConnectedShard(tensor.RandomVolume(6, 10, 10, 71), tensor.RandomKernels(11, 6, 10, 10, 74),
				true, ShardSpec{Pos: 3, Count: 6, Of: 9}, out)
			return out
		}},
		{name: "shard/gemm", want: 0x8858213a89e928ca, run: func() []float64 {
			out := tensor.NewMatrix(10, 12)
			NewChip(cfg).GEMMShard(tensor.RandomMatrix(10, 14, 75), tensor.RandomMatrix(14, 12, 76),
				true, ShardSpec{Pos: 1, Count: 7, Of: 9}, out)
			return out.Data
		}},
	}
}

func mustFault(c *Chip, g, u int, f Fault) {
	if err := c.InjectFault(g, u, f); err != nil {
		panic(err) //lint:ignore exit-hygiene golden fixture setup; inputs are constants
	}
}

func mustQuarantine(c *Chip, g, u int) {
	if err := c.Quarantine(g, u); err != nil {
		panic(err) //lint:ignore exit-hygiene golden fixture setup; inputs are constants
	}
}

// TestGoldenOutputs pins the analog pipeline's bits against the
// pre-optimization implementation.
func TestGoldenOutputs(t *testing.T) {
	t.Parallel()
	update := os.Getenv("ALBIREO_GOLDEN_UPDATE") != ""
	for _, gc := range goldenMatrix() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			if !update {
				t.Parallel()
			}
			got := goldenHash(gc.run())
			if update {
				fmt.Printf("golden %-28s 0x%016x\n", gc.name, got)
				return
			}
			if got != gc.want {
				t.Fatalf("output bits diverged from the pre-optimization pipeline: got 0x%016x, want 0x%016x", got, gc.want)
			}
		})
	}
}
