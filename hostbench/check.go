package main

import (
	"albireo/internal/inference"
	"albireo/internal/tensor"
)

// maxRelRMS is the largest divergence from the exact reference a
// served result may show and still count as correct.
const maxRelRMS = 0.5

// servedOp is one layer op a request submitted to the fleet, with the
// result the fleet returned. The fleet serves ops, not networks: each
// op's result is checked against inference.Exact on that op's own
// input, the contract the accuracy guard enforces. (Whole-network
// logits compound every layer's analog error and legitimately drift
// further from an exact run on the pristine input.)
type servedOp struct {
	kind   coreKind
	a      *tensor.Volume
	w      *tensor.Kernels
	cfg    tensor.ConvConfig
	ma, mb *tensor.Matrix
	relu   bool
	out    []float64
}

// divergence recomputes the op on the exact reference and returns the
// relative RMS of the served result against it.
func (op servedOp) divergence() float64 {
	var ref inference.Exact
	switch op.kind {
	case kindFC:
		return relRMS(op.out, ref.FullyConnected(op.a, op.w, op.relu))
	case kindGEMM:
		return relRMS(op.out, ref.GEMM(op.ma, op.mb, op.relu).Data)
	default:
		return relRMS(op.out, ref.Conv(op.a, op.w, op.cfg, op.relu).Data)
	}
}

// checkBackend records every op one request sends through b and a copy
// of the result it got back (callers such as nn.MLP add biases in
// place); the check itself runs after the measurement.
type checkBackend struct {
	b   inference.Backend
	ops []servedOp
}

func (c *checkBackend) Name() string { return c.b.Name() }

func (c *checkBackend) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	out := c.b.Conv(a, w, cfg, relu)
	c.ops = append(c.ops, servedOp{kind: kindConv, a: a, w: w, cfg: cfg, relu: relu, out: clone(out.Data)})
	return out
}

func (c *checkBackend) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	out := c.b.FullyConnected(a, w, relu)
	c.ops = append(c.ops, servedOp{kind: kindFC, a: a, w: w, relu: relu, out: clone(out)})
	return out
}

func (c *checkBackend) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	out := c.b.GEMM(a, b, relu)
	c.ops = append(c.ops, servedOp{kind: kindGEMM, ma: a, mb: b, relu: relu, out: clone(out.Data)})
	return out
}

func clone(x []float64) []float64 { return append([]float64(nil), x...) }
