package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"albireo/internal/core"
	"albireo/internal/inference"
	"albireo/internal/tensor"
)

// sim-cnn: the simulator as it is used offline. One caller alternates
// a TinyResNet and a TinyMobile inference on a single analog chip in a
// closed loop; no fleet, guard or journal. The chip runs the dense 3x3,
// strided, 1x1, depthwise and fully-connected mappings with warm weight
// programs.

// simSize is the sim-cnn input's spatial size; simPrefix is how many
// leading rounds the committed logits hash covers.
const (
	simSize   = 32
	simPrefix = 4
)

// simBlocks is how many equal blocks of time a sim-cnn run is split
// into; p50 and MAC throughput come from the best block (see
// blockDist). The tail is e2eTailPct over the whole run: the closed
// loop makes as many rounds as the host allows (about 250 in 36
// seconds), too few for p90 in a block.
const simBlocks = 8

//go:embed golden_simcnn.txt
var goldenText string

// goldenHashes parses the committed sim-cnn prefix hashes ("seed hash"
// per line).
func goldenHashes() (map[int64]string, error) {
	out := map[int64]string{}
	for n, line := range strings.Split(goldenText, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("golden_simcnn.txt:%d: want \"seed hash\"", n+1)
		}
		seed, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("golden_simcnn.txt:%d: %v", n+1, err)
		}
		out[seed] = f[1]
	}
	return out, nil
}

// macCounter is the exact reference with a tally of the MACs its calls
// perform, priced from layer geometry.
type macCounter struct {
	inference.Exact
	macs int64
}

func (m *macCounter) Conv(a *tensor.Volume, w *tensor.Kernels, cfg tensor.ConvConfig, relu bool) *tensor.Volume {
	_, l := convLayer(a, w, cfg)
	m.macs += l.MACs()
	return m.Exact.Conv(a, w, cfg, relu)
}

func (m *macCounter) FullyConnected(a *tensor.Volume, w *tensor.Kernels, relu bool) []float64 {
	m.macs += fcLayer(a, w).MACs()
	return m.Exact.FullyConnected(a, w, relu)
}

func (m *macCounter) GEMM(a, b *tensor.Matrix, relu bool) *tensor.Matrix {
	m.macs += gemmLayer(a, b.C).MACs()
	return m.Exact.GEMM(a, b, relu)
}

// simRig is one set-up sim-cnn chip with its two models.
type simRig struct {
	resnet, mobile *inference.Network
	be             inference.Backend
	ln             *chipLane // nil when untraced
	t              *tracer
}

// newSimRig builds the chip and models and warms the weight programs
// with one inference of each model.
func newSimRig(seed int64, t *tracer) *simRig {
	analog := inference.NewAnalog(core.DefaultConfig())
	r := &simRig{resnet: inference.TinyResNet(3, simSize, 1), mobile: inference.TinyMobile(3, simSize, 1), be: analog, t: t}
	if t != nil {
		r.ln = newLane(1)
		r.be = &coreBackend{t: t, ln: r.ln, chip: analog}
	}
	warm := cnnInput(seed, streamWarm, 0, simSize)
	r.resnet.Run(r.be, warm)
	r.mobile.Run(r.be, warm)
	return r
}

// simInputs returns round i's ResNet and Mobile inputs.
func simInputs(seed int64, i int) (*tensor.Volume, *tensor.Volume) {
	return cnnInput(seed, streamSimInput, 2*i, simSize), cnnInput(seed, streamSimInput, 2*i+1, simSize)
}

// infer runs one inference, as a traced request when tracing.
func (r *simRig) infer(n *inference.Network, x *tensor.Volume) ([]float64, time.Duration) {
	if r.t == nil {
		start := time.Now()
		out := n.Run(r.be, x)
		return out, time.Since(start)
	}
	id := r.t.newID()
	r.ln.parent, r.ln.req = id, id
	start := r.t.now()
	out := n.Run(r.be, x)
	end := r.t.now()
	r.t.add(span{name: "infer." + n.Name, id: id, req: id, lane: r.ln.id, start: start, end: end})
	return out, end - start
}

// hashLogits folds logits into h bit for bit.
func hashLogits(h io.Writer, logits []float64) {
	var b [8]byte
	for _, v := range logits {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// simPrefixHash is the hash of the first simPrefix rounds' logits on a
// freshly set-up chip: the value golden_simcnn.txt commits per seed.
func simPrefixHash(seed int64) string {
	r := newSimRig(seed, nil)
	h := sha256.New()
	for i := 0; i < simPrefix; i++ {
		xr, xm := simInputs(seed, i)
		lr, _ := r.infer(r.resnet, xr)
		lm, _ := r.infer(r.mobile, xm)
		hashLogits(h, lr)
		hashLogits(h, lm)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runSimCNN measures sim-cnn for o.span.
func runSimCNN(o options, t *tracer) (*report, error) {
	golden, err := goldenHashes()
	if err != nil {
		return nil, err
	}
	resnetMACs, mobileMACs := countMACs(inference.TinyResNet(3, simSize, 1), simSize), countMACs(inference.TinyMobile(3, simSize, 1), simSize)

	var rig *simRig
	var setups []float64
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		rig = newSimRig(o.seed, t)
		setups = append(setups, time.Since(start).Seconds())
	}
	if t != nil {
		t.reset()
	}

	rep := newReport()
	h := sha256.New()
	var light, heavy [simBlocks][]float64
	var busy [simBlocks]time.Duration
	start := time.Now()
	rounds := 0
	for i := 0; i < simPrefix || time.Since(start) < o.span; i++ {
		b := int(time.Since(start) * simBlocks / o.span)
		if b >= simBlocks {
			b = simBlocks - 1
		}
		xr, xm := simInputs(o.seed, i)
		lr, dr := rig.infer(rig.resnet, xr)
		lm, dm := rig.infer(rig.mobile, xm)
		heavy[b], light[b] = append(heavy[b], ms(dr)), append(light[b], ms(dm))
		busy[b] += dr + dm
		if i < simPrefix {
			hashLogits(h, lr)
			hashLogits(h, lm)
		}
		rounds++
	}
	rep.attempted = 2 * rounds

	// Bit-identity is the oracle here: the unguarded chip's logits
	// legitimately sit far from the exact reference's (analog noise on
	// random weights), so only the served workloads, whose guard falls
	// back per layer, are scored against it.
	got := hex.EncodeToString(h.Sum(nil))
	want, ok := golden[o.seed]
	if !ok {
		want = simPrefixHash(o.seed)
		rep.note("sim-cnn: seed %d has no committed hash; checked that a fresh chip reproduces the run instead", o.seed)
	}
	if got != want {
		rep.fail(fmt.Sprintf("sim-cnn: logits hash %s, want %s", got, want), 2*simPrefix, true)
	}
	var rates []float64
	for b, d := range busy {
		if d > 0 {
			rates = append(rates, float64(int64(len(heavy[b]))*(resnetMACs+mobileMACs))/d.Seconds())
		}
	}
	lightD, heavyD := blockDist(light[:], e2eTailPct, true), blockDist(heavy[:], e2eTailPct, true)
	rep.set("setup_s", median(setups))
	rep.set("macs_per_s", slices.Max(rates))
	rep.latency("light", "tiny-mobile inference", lightD)
	rep.latency("heavy", "tiny-resnet inference", heavyD)
	if t != nil {
		t.layerMetrics(rep.values)
	}
	return rep, nil
}

// countMACs prices one inference of n on 3 x size x size inputs from
// its layer geometry.
func countMACs(n *inference.Network, size int) int64 {
	var c macCounter
	n.Run(&c, tensor.NewVolume(3, size, size))
	return c.macs
}
