package main

import (
	"math/rand"
	"sort"
	"time"

	"albireo/internal/nn"
	"albireo/internal/tensor"
)

// The load generator (layer "gen"). Everything a run feeds the program
// is a pure function of the run seed, drawn from independent streams
// so that, for example, changing the phase length leaves the inputs of
// the first requests unchanged.

// Stream identifiers keep the per-purpose random sequences apart.
const (
	streamWarm = iota + 1
	streamSimInput
	streamSchedule
	streamRequest
	streamCalibrate
)

// subSeed mixes the run seed, a stream and an index into one seed
// (SplitMix64 finaliser), so neighbouring indices get unrelated inputs.
func subSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// poissonSchedule returns the send offsets of block i of a Poisson
// arrival process at rate per second over span, conditioned on its
// expected count: round(rate*span) arrivals placed uniformly at random
// and sorted. Conditioning removes run-to-run variation in offered load
// while keeping Poisson burstiness.
func poissonSchedule(seed int64, i int, rate float64, span time.Duration) []time.Duration {
	n := int(rate*span.Seconds() + 0.5)
	rng := rand.New(rand.NewSource(subSeed(seed, streamSchedule, i)))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cnnInput is one non-negative (post-ReLU-like) image for the CNN
// workloads.
func cnnInput(seed int64, stream, i, size int) *tensor.Volume {
	return tensor.RandomVolume(3, size, size, subSeed(seed, stream, i))
}

// gemmRows, gemmIn, gemmHidden and gemmOut shape the serve-gemm MLP
// request: gemmRows rows through gemmIn -> gemmHidden -> gemmOut.
// attnSeq x attnDim is the attention request's operand shape.
const (
	gemmRows   = 8
	gemmIn     = 256
	gemmHidden = 128
	gemmOut    = 10
	attnSeq    = 16
	attnDim    = 32
)

// gemmRequest is one serve-gemm request: an MLP forward over x with
// one of the two weight sets, or an attention over q, k, v.
type gemmRequest struct {
	attention bool
	set       int // MLP weight set (0 or 1)
	x         *tensor.Matrix
	q, k, v   *tensor.Matrix
}

// gemmRequestAt returns request i of the serve-gemm mix: every fourth
// request is an attention, the other three MLP forwards that alternate
// between the two weight sets.
func gemmRequestAt(seed int64, stream, i int) gemmRequest {
	s := func(part int) int64 { return subSeed(seed, stream, 4*i+part) }
	if i%4 == 3 {
		return gemmRequest{
			attention: true,
			q:         tensor.RandomMatrix(attnSeq, attnDim, s(0)),
			k:         tensor.RandomMatrix(attnSeq, attnDim, s(1)),
			v:         tensor.RandomMatrix(attnSeq, attnDim, s(2)),
		}
	}
	mlpIndex := i - i/4
	return gemmRequest{set: mlpIndex % 2, x: tensor.RandomMatrix(gemmRows, gemmIn, s(0))}
}

// mlpWeightSets are the serve-gemm model's two weight sets.
func mlpWeightSets() [2]*nn.MLP {
	dims := []int{gemmIn, gemmHidden, gemmOut}
	return [2]*nn.MLP{nn.NewMLP("mlp-a", dims, 1), nn.NewMLP("mlp-b", dims, 101)}
}

// freshCopy returns m with newly allocated weight and bias storage, as
// a JSON decode of a /v1/gemm body would produce: the chip's program
// caches key on pointer identity and so see new weights every request.
func freshCopy(m *nn.MLP) *nn.MLP {
	c := &nn.MLP{Name: m.Name}
	for i, w := range m.Weights {
		c.Weights = append(c.Weights, w.Clone())
		c.Biases = append(c.Biases, append([]float64(nil), m.Biases[i]...))
	}
	return c
}
