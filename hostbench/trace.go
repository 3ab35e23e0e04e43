package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"albireo/internal/core"
	"albireo/internal/fleet"
	"albireo/internal/inference"
	"albireo/internal/nn"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// The traced run times every call into a layer's public functions from
// outside the program: decorators that implement inference.Backend
// (and so nn.GEMMExecutor) sit at each boundary of the stack that
// fleet.BuildUnits assembles, and the serve loops time their fleet,
// nn and journal calls. Each timed call is kept as a span in memory and
// written out at exit as Chrome trace-event JSON.

// coreKind indexes coreKindNames.
type coreKind int

const (
	kindConv coreKind = iota
	kindDepthwise
	kindPointwise
	kindFC
	kindGEMM
	numKinds
)

// maxSpans bounds the spans one traced run keeps.
const maxSpans = 1 << 18

// span is one timed call at a layer boundary. Spans of one request
// share req; parent is the span whose call caused this one.
type span struct {
	name       string
	id, parent int64
	req        int64
	lane       int64
	start, end time.Duration // since the tracer epoch
}

// coreStat accumulates one chip mapping's calls.
type coreStat struct {
	calls  int64
	busy   time.Duration
	macs   int64
	cycles int64
}

// opRef links a fleet op submitted on a client goroutine to the unit
// execution it causes on a worker goroutine. Both sides know the op by
// its input tensor, which the fleet hands through unchanged.
type opRef struct {
	req, span int64
	exec      time.Duration
	ran       bool
}

// tracer holds the spans and per-layer tallies of one traced run.
type tracer struct {
	epoch time.Time
	cfg   core.Config
	next  atomic.Int64

	mu        sync.Mutex
	spans     []span
	dropped   int64
	core      [numKinds]coreStat
	calls     int64
	reused    int64
	guardSelf time.Duration
	ops       int64
	waits     []float64
	nnSelf    time.Duration
	inflight  map[any]*opRef
	unmatched []shardedOp // a uniform sample of retimeLimit of them
	sharded   int         // sharded ops seen
	sample    *rand.Rand
}

// shardedOp is a fleet GEMM whose execution bypassed every unit
// decorator (a kernel-group fan-out runs core.Chip.GEMMShard directly);
// its operands are kept so the core work can be re-timed afterwards.
type shardedOp struct {
	a, b *tensor.Matrix
	relu bool
	dur  time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), cfg: core.DefaultConfig(), inflight: map[any]*opRef{}, sample: rand.New(rand.NewSource(1))}
}

// now is the time since the tracer epoch.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// newID returns a fresh span id (never 0, which means "no parent").
func (t *tracer) newID() int64 { return t.next.Add(1) }

// reset drops everything recorded so far (the warm-up) but keeps ids
// unique.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.dropped = nil, 0
	t.core = [numKinds]coreStat{}
	t.calls, t.reused, t.guardSelf, t.ops, t.nnSelf = 0, 0, 0, 0, 0
	t.waits, t.unmatched, t.sharded = nil, nil, 0
}

// addLocked keeps one span.
func (t *tracer) addLocked(s span) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// add keeps one span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.addLocked(s)
	t.mu.Unlock()
}

// chipLane is the call chain of one chip. Only the goroutine driving
// that chip (its fleet worker, or the sim-cnn caller) touches it.
type chipLane struct {
	id       int64
	seen     map[any]bool // weight tensors this chip has executed
	coreTime time.Duration
	parent   int64 // enclosing span on this lane
	req      int64
}

func newLane(id int64) *chipLane { return &chipLane{id: id, seen: map[any]bool{}} }

// recordCore books one chip call of the given geometry.
func (t *tracer) recordCore(ln *chipLane, kind coreKind, weights any, l nn.Layer, start, end time.Duration) {
	d := end - start
	ln.coreTime += d
	reused := ln.seen[weights]
	ln.seen[weights] = true
	cycles := t.cfg.MapLayer(l).Cycles
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &t.core[kind]
	st.calls++
	st.busy += d
	st.macs += l.MACs()
	st.cycles += cycles
	t.calls++
	if reused {
		t.reused++
	}
	t.addLocked(span{name: "core." + coreKindNames[kind], id: t.newID(), parent: ln.parent, req: ln.req, lane: ln.id, start: start, end: end})
}

// convLayer describes a convolution call the way inference.Analog
// routes it: 1x1 dense stride-1 unpadded kernels take the pointwise
// mapping, depthwise kernels the depthwise one, the rest the
// receptive-field mapping.
func convLayer(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig) (coreKind, nn.Layer) {
	stride := cfg.Stride
	if stride == 0 {
		stride = 1
	}
	l := nn.Layer{InZ: a.Z, InY: a.Y, InX: a.X, OutZ: w.M, KY: w.Y, KX: w.X, Stride: stride, Pad: cfg.Pad, Groups: cfg.Groups}
	switch {
	case cfg.Depthwise:
		l.Kind, l.OutZ = nn.Depthwise, a.Z
		return kindDepthwise, l
	case cfg.Groups <= 1 && w.Y == 1 && w.X == 1 && stride == 1 && cfg.Pad == 0:
		l.Kind = nn.Pointwise
		return kindPointwise, l
	default:
		l.Kind = nn.Conv
		return kindConv, l
	}
}

// fcLayer describes a fully-connected call.
func fcLayer(a *tensor.Volume, w *tensor.Kernels) nn.Layer {
	return nn.Layer{Kind: nn.FC, InZ: a.Z, InY: a.Y, InX: a.X, OutZ: w.M, KY: 1, KX: 1}
}

// gemmLayer describes an a x b product whose output keeps cols columns.
func gemmLayer(a *tensor.Matrix, cols int) nn.Layer {
	return nn.Layer{Kind: nn.GEMM, InZ: a.C, InY: 1, InX: a.R, OutZ: cols, KY: 1, KX: 1}
}

// coreBackend times the analog chip (layer "core").
type coreBackend struct {
	t    *tracer
	ln   *chipLane
	chip inference.Analog
}

func (c *coreBackend) Name() string { return c.chip.Name() }

func (c *coreBackend) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	kind, l := convLayer(a, w, cfg)
	start := c.t.now()
	out := c.chip.Conv(a, w, cfg, relu)
	c.t.recordCore(c.ln, kind, w, l, start, c.t.now())
	return out
}

func (c *coreBackend) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	start := c.t.now()
	out := c.chip.FullyConnected(a, w, relu)
	c.t.recordCore(c.ln, kindFC, w, fcLayer(a, w), start, c.t.now())
	return out
}

func (c *coreBackend) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	start := c.t.now()
	out := c.chip.GEMM(a, b, relu)
	c.t.recordCore(c.ln, kindGEMM, b, gemmLayer(a, b.C), start, c.t.now())
	return out
}

// guardBackend times the accuracy guard (layer "guard"); its self time
// is the Guarded call minus the core time that call caused.
type guardBackend struct {
	t  *tracer
	ln *chipLane
	g  *inference.Guarded
}

// timed runs one Guarded call as a child span of the lane's current
// parent and books its self time.
func (g *guardBackend) timed(call func()) {
	id, outer := g.t.newID(), g.ln.parent
	g.ln.parent = id
	core0, start := g.ln.coreTime, g.t.now()
	call()
	end := g.t.now()
	g.ln.parent = outer
	g.t.mu.Lock()
	g.t.guardSelf += end - start - (g.ln.coreTime - core0)
	g.t.addLocked(span{name: "guard", id: id, parent: outer, req: g.ln.req, lane: g.ln.id, start: start, end: end})
	g.t.mu.Unlock()
}

func (g *guardBackend) Name() string { return g.g.Name() }

func (g *guardBackend) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) (out *tensor.Volume) {
	g.timed(func() { out = g.g.Conv(a, w, cfg, relu) })
	return out
}

func (g *guardBackend) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) (out []float64) {
	g.timed(func() { out = g.g.FullyConnected(a, w, relu) })
	return out
}

func (g *guardBackend) GEMM(a, b *tensor.Matrix, relu bool) (out *tensor.Matrix) {
	g.timed(func() { out = g.g.GEMM(a, b, relu) })
	return out
}

// unitBackend times a whole fleet unit (everything fleet.BuildUnits
// stacks on one chip) and reports the execution back to the op that
// caused it.
type unitBackend struct {
	t  *tracer
	ln *chipLane
	b  inference.Backend
}

// timed runs one unit execution of the op whose input is key.
func (u *unitBackend) timed(key any, call func()) {
	u.t.mu.Lock()
	ref := u.t.inflight[key]
	u.t.mu.Unlock()
	id := u.t.newID()
	var parent, req int64
	if ref != nil {
		parent, req = ref.span, ref.req
	}
	u.ln.parent, u.ln.req = id, req
	start := u.t.now()
	call()
	end := u.t.now()
	u.ln.parent, u.ln.req = 0, 0
	u.t.mu.Lock()
	if ref != nil {
		ref.exec, ref.ran = end-start, true
	}
	u.t.addLocked(span{name: "fleet.exec", id: id, parent: parent, req: req, lane: u.ln.id, start: start, end: end})
	u.t.mu.Unlock()
}

func (u *unitBackend) Name() string { return u.b.Name() }

func (u *unitBackend) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) (out *tensor.Volume) {
	u.timed(a, func() { out = u.b.Conv(a, w, cfg, relu) })
	return out
}

func (u *unitBackend) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) (out []float64) {
	u.timed(a, func() { out = u.b.FullyConnected(a, w, relu) })
	return out
}

func (u *unitBackend) GEMM(a, b *tensor.Matrix, relu bool) (out *tensor.Matrix) {
	u.timed(a, func() { out = u.b.GEMM(a, b, relu) })
	return out
}

// tracedUnits mirrors fleet.BuildUnits layer for layer (same seeds,
// same guard, same instruments) with a decorator at each boundary:
// unit( Observe( guard( Guarded( core( Analog ))))).
func tracedUnits(t *tracer, spec fleet.PoolSpec, reg *obs.Registry, trace *obs.Trace) ([]fleet.Unit, []*inference.Guarded) {
	units := make([]fleet.Unit, spec.Pool)
	guards := make([]*inference.Guarded, spec.Pool)
	for i := range units {
		cfg := core.DefaultConfig()
		cfg.Seed = spec.Seed + int64(i)
		analog := inference.NewAnalog(cfg)
		analog.Chip.Instrument(reg, trace)
		ln := newLane(int64(i + 1))
		g := inference.Guard(&coreBackend{t: t, ln: ln, chip: analog}, inference.Exact{}, spec.Budget).Instrument(reg, trace)
		guards[i] = g
		observed := inference.Observe(&guardBackend{t: t, ln: ln, g: g}, reg, trace)
		units[i] = fleet.Unit{Backend: &unitBackend{t: t, ln: ln, b: observed}, Chip: analog.Chip}
	}
	return units, guards
}

// opBackend times one request's fleet ops (layer "fleet") on the
// client goroutine. It wraps the request's own BoundBackend.
type opBackend struct {
	t      *tracer
	b      *fleet.BoundBackend
	req    int64
	parent int64
	total  time.Duration // time spent inside fleet ops
}

// timed submits one op keyed by its input and books its wait: the op
// time minus the unit execution it caused. A sharded GEMM never reaches
// a unit; it is kept for re-timing instead.
func (o *opBackend) timed(key any, call func(), sharded *shardedOp) {
	id := o.t.newID()
	ref := &opRef{req: o.req, span: id}
	o.t.mu.Lock()
	o.t.inflight[key] = ref
	o.t.mu.Unlock()
	start := o.t.now()
	call()
	end := o.t.now()
	o.total += end - start
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	delete(o.t.inflight, key)
	o.t.ops++
	switch {
	case ref.ran:
		o.t.waits = append(o.t.waits, ms(end-start-ref.exec))
	case sharded != nil:
		// Reservoir sampling keeps memory to retimeLimit operand sets.
		sharded.dur = end - start
		o.t.sharded++
		if len(o.t.unmatched) < retimeLimit {
			o.t.unmatched = append(o.t.unmatched, *sharded)
		} else if j := o.t.sample.Intn(o.t.sharded); j < retimeLimit {
			o.t.unmatched[j] = *sharded
		}
	}
	o.t.addLocked(span{name: "fleet.op", id: id, parent: o.parent, req: o.req, lane: laneOfRequest(o.req), start: start, end: end})
}

func (o *opBackend) Name() string { return o.b.Name() }

func (o *opBackend) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) (out *tensor.Volume) {
	o.timed(a, func() { out = o.b.Conv(a, w, cfg, relu) }, nil)
	return out
}

func (o *opBackend) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) (out []float64) {
	o.timed(a, func() { out = o.b.FullyConnected(a, w, relu) }, nil)
	return out
}

func (o *opBackend) GEMM(a, b *tensor.Matrix, relu bool) (out *tensor.Matrix) {
	o.timed(a, func() { out = o.b.GEMM(a, b, relu) }, &shardedOp{a: a, b: b, relu: relu})
	return out
}

// laneOfRequest is the Chrome trace row of a request's client-side
// spans; rows below it belong to chips.
func laneOfRequest(req int64) int64 { return 1000 + req }

// recordNN books one nn forward (layer "nn"): its self time is the call
// minus the fleet ops it made.
func (t *tracer) recordNN(name string, id, req int64, start, end, ops time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nnSelf += end - start - ops
	t.addLocked(span{name: name, id: id, parent: req, req: req, lane: laneOfRequest(req), start: start, end: end})
}

// retimeLimit caps how many sharded GEMMs a traced run re-times.
const retimeLimit = 120

// retimeSharded re-executes the sampled sharded GEMMs of the run
// through core.Chip.GEMMShard over the core.PartitionShards windows the
// fleet used, one standalone chip per window, and books them as core
// work. The fleet wait of each re-timed op is its op time minus the
// slowest window. These core figures are a standalone re-timing, not
// the served chips' own time.
func (t *tracer) retimeSharded(spec fleet.PoolSpec, windows []core.ShardSpec) {
	t.mu.Lock()
	ops := t.unmatched
	t.unmatched = nil
	t.mu.Unlock()
	chips := make([]*core.Chip, len(windows))
	lanes := make([]*chipLane, len(windows))
	for i := range chips {
		cfg := core.DefaultConfig()
		cfg.Seed = spec.Seed + int64(i)
		chips[i] = core.NewChip(cfg)
		lanes[i] = newLane(int64(100 + i))
	}
	for _, op := range ops {
		var slowest time.Duration
		for i, w := range windows {
			if w.Count == 0 {
				continue
			}
			out := tensor.NewMatrix(op.a.R, op.b.C)
			start := t.now()
			chips[i].GEMMShard(op.a, op.b, op.relu, w, out)
			end := t.now()
			t.recordCore(lanes[i], kindGEMM, op.b, gemmLayer(op.a, w.Kernels(op.b.C)), start, end)
			if end-start > slowest {
				slowest = end - start
			}
		}
		t.mu.Lock()
		t.waits = append(t.waits, ms(op.dur-slowest))
		t.mu.Unlock()
	}
}

// layerMetrics derives the core, fleet and nn metrics from the tallies.
func (t *tracer) layerMetrics(into map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var busy time.Duration
	var cycles int64
	for k, st := range t.core {
		name := "core." + coreKindNames[k]
		into[name+".calls"] = float64(st.calls)
		into[name+".busy_ms"] = ms(st.busy)
		into[name+".macs_per_s"] = 0
		if st.busy > 0 {
			into[name+".macs_per_s"] = float64(st.macs) / st.busy.Seconds()
		}
		busy += st.busy
		cycles += st.cycles
	}
	into["core.ns_per_cycle"], into["core.weight_reuse"] = 0, 0
	if cycles > 0 {
		into["core.ns_per_cycle"] = float64(busy.Nanoseconds()) / float64(cycles)
	}
	if t.calls > 0 {
		into["core.weight_reuse"] = float64(t.reused) / float64(t.calls)
	}
	into["guard.self_ms"] = ms(t.guardSelf)
	into["fleet.ops"] = float64(t.ops)
	w := summarize(t.waits, tailFor(len(t.waits)))
	into["fleet.wait_p50_ms"], into["fleet.wait_tail_ms"] = w.P50, w.Tail
	into["nn.digital_self_ms"] = ms(t.nnSelf)
}

// chromeEvent is one Chrome trace-event ("X" = complete event).
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int64            `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (opens in
// Perfetto or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int64{"id": s.id, "parent": s.parent, "req": s.req},
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	raw, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]int64{"dropped_spans": dropped},
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
