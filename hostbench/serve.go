package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"albireo/internal/core"
	"albireo/internal/fleet"
	"albireo/internal/inference"
	"albireo/internal/journal"
	"albireo/internal/nn"
	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// The serve workloads drive the fleet the way albireo-serve does by
// default, in-process: an open loop sends requests on a seeded Poisson
// schedule at a low and then a high rate, each request runs through
// its own Scheduler.Bind, and latency runs from the scheduled send time
// to completion.

// The pool albireo-serve builds by default.
const (
	poolSize        = 2
	poolSeed        = 1
	guardBudget     = 0.5
	maxBatch        = 8
	queueDepth      = 64
	lingerTick      = 2 * time.Millisecond
	reprobeInterval = 5 * time.Second
	servedSize      = 12 // albireo-serve's default -size
)

// serveRates are a serve workload's two offered loads (requests per
// second) and its latency limit. They derive from the closed-loop
// capacity --calibrate measures (README.md).
type serveRates struct {
	low, high float64
	slo       time.Duration
}

var (
	cnnRates  = serveRates{low: 50, high: 80, slo: 50 * time.Millisecond}
	gemmRates = serveRates{low: 10, high: 15, slo: 250 * time.Millisecond}
)

// servePool is one set-up fleet with its wall ticker and journal.
type servePool struct {
	spec     fleet.PoolSpec
	reg      *obs.Registry // the observability sinks albireo-serve attaches
	trace    *obs.Trace
	units    []fleet.Unit
	guards   []*inference.Guarded
	sched    *fleet.Scheduler
	jrn      *journal.Async
	jdir     string
	stopTick func()
}

// newPool builds the pool as albireo-serve does (fleet.BuildUnits, or
// its traced mirror), optionally with kernel-group sharding and an
// async journal in a scratch directory, and starts it: BIST scans, then
// a 2 ms wall ticker driving a one-tick linger.
func newPool(shard, journaled bool, t *tracer) (*servePool, error) {
	p := &servePool{
		spec:  fleet.PoolSpec{Pool: poolSize, Seed: poolSeed, Budget: guardBudget, KeepDegraded: true},
		reg:   obs.NewRegistry(),
		trace: obs.NewTrace(),
	}
	if t == nil {
		var err error
		if p.units, p.guards, err = fleet.BuildUnits(p.spec, p.reg, p.trace); err != nil {
			return nil, err
		}
	} else {
		p.units, p.guards = tracedUnits(t, p.spec, p.reg, p.trace)
	}
	if journaled {
		if err := p.openJournal(); err != nil {
			return nil, err
		}
	}
	opt := fleet.Options{
		MaxBatch: maxBatch, QueueDepth: queueDepth, MaxLinger: 1,
		ReprobeEvery: int(reprobeInterval / lingerTick),
		KeepDegraded: true, Shard: shard, Journal: p.jrn,
	}
	sched, err := fleet.New(opt, p.units...)
	if err != nil {
		p.closeJournal()
		return nil, err
	}
	p.sched = sched.Instrument(p.reg, p.trace)
	if err := p.sched.Start(); err != nil {
		p.closeJournal()
		return nil, err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	ticker := time.NewTicker(lingerTick)
	go func() {
		defer close(done)
		for {
			select {
			case <-ticker.C:
				p.sched.Tick()
			case <-stop:
				return
			}
		}
	}()
	p.stopTick = func() {
		ticker.Stop()
		close(stop)
		<-done
	}
	return p, nil
}

// openJournal creates a fresh journal under .bench_build/tmp and wires
// the guards' fallback hooks to it, as albireo-serve -journal does.
func (p *servePool) openJournal() error {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "journal-")
	if err != nil {
		return err
	}
	p.jdir = dir
	hdr := journal.Header{Pool: poolSize, Seed: poolSeed, Size: servedSize, Budget: guardBudget, KeepDegraded: true}
	w, err := journal.Create(dir, hdr, journal.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	p.jrn = journal.NewAsync(w, 0).Instrument(p.reg, p.trace)
	p.jrn.Start()
	for i, g := range p.guards {
		worker := int64(i)
		g.FallbackHook = func(kind string) {
			op := journal.OpConv
			switch kind {
			case "fc":
				op = journal.OpFC
			case "gemm":
				op = journal.OpGEMM
			}
			p.jrn.Record(journal.KindFallback, journal.EncodeFallback(journal.Fallback{Worker: worker, Op: op}))
		}
	}
	return nil
}

// closeJournal seals the journal, removes its directory and returns how
// long sealing took.
func (p *servePool) closeJournal() (time.Duration, error) {
	if p.jrn == nil {
		return 0, nil
	}
	start := time.Now()
	err := p.jrn.Close()
	drain := time.Since(start)
	if rerr := os.RemoveAll(p.jdir); err == nil {
		err = rerr
	}
	return drain, err
}

// close stops the ticker, drains the fleet and seals the journal.
func (p *servePool) close() (time.Duration, error) {
	p.stopTick()
	err := p.sched.Close(context.Background())
	drain, jerr := p.closeJournal()
	return drain, errors.Join(err, jerr)
}

// guardCounts sums the guards' checks and fallbacks.
func (p *servePool) guardCounts() (checks, fallbacks int64) {
	for _, g := range p.guards {
		checks += g.Checks()
		fallbacks += g.Fallbacks()
	}
	return checks, fallbacks
}

// outcome is one served request.
type outcome struct {
	late time.Duration // send time past the schedule
	lat  time.Duration // completion past the schedule
	ops  []servedOp    // dropped once checked
	div  float64       // the worst served op's divergence from the exact reference
	err  error
}

// maxBlocks caps the blocks a rate's half of a run is split into, and
// minBlockRequests is the fewest requests a heavy block is planned to
// hold, so that its p90 leaves ten samples beyond it.
const (
	maxBlocks        = 8
	minBlockRequests = 100
)

// blockResult is one block of requests at one rate.
type blockResult struct {
	base    int // index of the block's first request
	outs    []outcome
	backlog int64         // requests in flight when the schedule ended
	elapsed time.Duration // from the block start to its last completion
}

// openLoop sends request base+i at sends[i] after the block start,
// whether or not earlier requests have finished, then waits for all.
func openLoop(sends []time.Duration, span time.Duration, base int, do func(i int) ([]servedOp, error)) blockResult {
	var wg sync.WaitGroup
	var inflight atomic.Int64
	outs := make([]outcome, len(sends))
	start := time.Now()
	for i, off := range sends {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		inflight.Add(1)
		wg.Add(1)
		go func(i int, due time.Time, late time.Duration) {
			defer wg.Done()
			ops, err := do(base + i)
			outs[i] = outcome{late: late, lat: time.Since(due), ops: ops, err: err}
			inflight.Add(-1)
		}(i, due, late)
	}
	time.Sleep(time.Until(start.Add(span)))
	backlog := inflight.Load()
	wg.Wait()
	return blockResult{base: base, outs: outs, backlog: backlog, elapsed: time.Since(start)}
}

// serveWorkload is what differs between serve-cnn and serve-gemm.
type serveWorkload struct {
	name      string
	rates     serveRates
	shard     bool
	journaled bool
	// warm runs the warm-up requests through a fresh pool.
	warm func(p *servePool) error
	// request runs request i on the pool (tracing its fleet and nn calls
	// when t is non-nil) and returns the ops it was served.
	request func(p *servePool, t *tracer, i int) ([]servedOp, error)
	// macs is request i's MAC count from layer geometry.
	macs func(i int) int64
}

// measureServe sets the pool up o.setups times (reporting the median),
// then spends half of o.span at each rate on the last pool and checks
// every served op against the exact reference.
func measureServe(w serveWorkload, o options, t *tracer) (*report, error) {
	var p *servePool
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if p != nil {
			if _, err := p.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if p, err = newPool(w.shard, w.journaled, t); err != nil {
			return nil, err
		}
		if err := w.warm(p); err != nil {
			p.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if t != nil {
		t.reset()
	}
	shed0 := p.reg.Counter(fleet.MetricShed).Value()
	checks0, fallbacks0 := p.guardCounts()
	var status0 journal.Status
	if p.jrn != nil {
		status0 = p.jrn.Status()
	}

	// Blocks of the two rates alternate, so a stall of the host lands on
	// both rates and leaves other blocks of each rate undisturbed.
	rates := [2]float64{w.rates.low, w.rates.high}
	nblocks := int(w.rates.high * (o.span / 2).Seconds() / minBlockRequests)
	nblocks = max(1, min(maxBlocks, nblocks))
	block := o.span / time.Duration(2*nblocks)
	do := func(i int) ([]servedOp, error) { return w.request(p, t, i) }
	var blocks [2][]blockResult
	next := 0
	for b := 0; b < nblocks; b++ {
		for r, rate := range rates {
			sends := poissonSchedule(o.seed, 2*b+r, rate, block)
			blk := openLoop(sends, block, next, do)
			// Check between blocks, while the pool is idle, so the
			// operands of one block at most are held.
			for i := range blk.outs {
				blk.outs[i].div = worstDivergence(blk.outs[i].ops)
				blk.outs[i].ops = nil
			}
			blocks[r] = append(blocks[r], blk)
			next += len(sends)
		}
	}

	shed := p.reg.Counter(fleet.MetricShed).Value() - shed0
	checks, fallbacks := p.guardCounts()
	checks, fallbacks = checks-checks0, fallbacks-fallbacks0
	drain, err := p.close()
	if err != nil {
		return nil, err
	}
	var status journal.Status
	if p.jrn != nil {
		status = p.jrn.Status() // after the seal: every record is appended
	}

	rep := newReport()
	var lates []float64
	var goodMACs, backlog int64
	var heavyTime, measured time.Duration
	good := 0
	for r, rate := range rates {
		var lats [][]float64
		for _, blk := range blocks[r] {
			var ok []float64
			for i, oc := range blk.outs {
				rep.attempted++
				lates = append(lates, ms(oc.late))
				if oc.err != nil {
					rep.fail(fmt.Sprintf("%s: request %d: %v", w.name, blk.base+i, oc.err), 1, !errors.Is(oc.err, fleet.ErrOverloaded))
					continue
				}
				if !(oc.div <= maxRelRMS) {
					rep.fail(fmt.Sprintf("%s: request %d: served op rel-RMS %.3f vs exact", w.name, blk.base+i, oc.div), 1, true)
					continue
				}
				ok = append(ok, ms(oc.lat))
				if r == 1 && oc.lat <= w.rates.slo {
					good++
					goodMACs += w.macs(blk.base + i)
				}
			}
			lats = append(lats, ok)
			backlog += blk.backlog
			measured += blk.elapsed
			if r == 1 {
				heavyTime += blk.elapsed
			}
		}
		name := [2]string{"light", "heavy"}[r]
		rep.latency(name, fmt.Sprintf("%g req/s open loop", rate), blockDist(lats, min(e2eTailPct, tailFor(len(blocks[r][0].outs))), false))
	}
	rep.set("setup_s", median(setups))
	rep.set("macs_per_s", float64(goodMACs)/heavyTime.Seconds())
	rep.note("goodput at %g req/s: %.2f req/s within the %v SLO; fail_frac %.4f (%d of %d)",
		w.rates.high, float64(good)/heavyTime.Seconds(), w.rates.slo,
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)

	if t != nil {
		if w.shard {
			t.retimeSharded(p.spec, shardWindows(p))
			rep.note("core.* on %s: standalone re-timing of the run's GEMM operands through core.Chip.GEMMShard (sharded ops bypass every Backend); guard.* is zero by construction", w.name)
		}
		t.layerMetrics(rep.values)
		rep.set("guard.checks", float64(checks))
		rep.set("guard.fallback_frac", 0)
		if checks > 0 {
			rep.set("guard.fallback_frac", float64(fallbacks)/float64(checks))
		}
		rep.set("fleet.shed", float64(shed))
		rep.set("gen.late_tail_ms", summarize(lates, tailFor(len(lates))).Tail)
		rep.set("gen.backlog_end", float64(backlog))
		if p.jrn != nil {
			dropped := status.Dropped - status0.Dropped
			offered := status.Enqueued - status0.Enqueued + dropped
			rep.set("journal.records_per_s", float64(status.HeadSeq-status0.HeadSeq)/measured.Seconds())
			rep.set("journal.dropped_frac", 0)
			if offered > 0 {
				rep.set("journal.dropped_frac", float64(dropped)/float64(offered))
			}
			rep.set("journal.drain_ms", ms(drain))
		}
	}
	return rep, nil
}

// shardWindows are the kernel-group windows the fleet gave its workers:
// core.PartitionShards over the active-group count, weighted by the
// workers' healthy PLCUs. Call after the pool has closed.
func shardWindows(p *servePool) []core.ShardSpec {
	var of int
	weights := make([]int64, len(p.units))
	for i, wi := range p.sched.Info() {
		weights[i] = wi.Weight
		if g := p.units[i].Chip.ActiveGroups(); g > of {
			of = g
		}
	}
	return core.PartitionShards(of, weights)
}

// bind returns the backend request req runs on: its own bound backend,
// behind the fleet timing decorator when tracing.
func bind(p *servePool, t *tracer, req, parent int64) (*fleet.BoundBackend, inference.Backend) {
	bound := p.sched.Bind(context.Background())
	if t == nil {
		return bound, bound
	}
	return bound, &opBackend{t: t, b: bound, req: req, parent: parent}
}

// worstDivergence is the largest divergence among a request's ops.
func worstDivergence(ops []servedOp) float64 {
	worst := 0.0
	for _, op := range ops {
		if d := op.divergence(); !(d <= worst) {
			worst = d
		}
	}
	return worst
}

// tracedRequest wraps one request in a "request" span when tracing.
func tracedRequest(t *tracer, body func(req int64) ([]servedOp, error)) ([]servedOp, error) {
	if t == nil {
		return body(0)
	}
	req := t.newID()
	start := t.now()
	out, err := body(req)
	t.add(span{name: "request", id: req, req: req, lane: laneOfRequest(req), start: start, end: t.now()})
	return out, err
}

// runServeCNN is serve-cnn: TinyCNN inferences through the default pool.
func runServeCNN(o options, t *tracer) (*report, error) {
	model := inference.TinyCNN(3, servedSize, poolSeed)
	macs := countMACs(model, servedSize)
	input := func(i int) *tensor.Volume { return cnnInput(o.seed, streamRequest, i, servedSize) }
	return measureServe(serveWorkload{
		name:  "serve-cnn",
		rates: cnnRates,
		warm: func(p *servePool) error {
			for i := 0; i < poolSize; i++ {
				bound := p.sched.Bind(context.Background())
				model.Run(bound, cnnInput(o.seed, streamWarm, i, servedSize))
				if err := bound.Err(); err != nil {
					return err
				}
			}
			return nil
		},
		request: func(p *servePool, t *tracer, i int) ([]servedOp, error) {
			return tracedRequest(t, func(req int64) ([]servedOp, error) {
				bound, be := bind(p, t, req, req)
				chk := &checkBackend{b: be}
				model.Run(chk, input(i))
				return chk.ops, bound.Err()
			})
		},
		macs: func(int) int64 { return macs },
	}, o, t)
}

// runServeGEMM is serve-gemm: MLP forwards and attentions fanned out
// across a sharded, journaled pool.
func runServeGEMM(o options, t *tracer) (*report, error) {
	sets := mlpWeightSets()
	var mlpMACs, attnMACs macCounter
	sets[0].Forward(&mlpMACs, tensor.NewMatrix(gemmRows, gemmIn))
	nn.Attention(&attnMACs, tensor.NewMatrix(attnSeq, attnDim), tensor.NewMatrix(attnSeq, attnDim), tensor.NewMatrix(attnSeq, attnDim))
	run := func(exec nn.GEMMExecutor, r gemmRequest) *tensor.Matrix {
		if r.attention {
			return nn.Attention(exec, r.q, r.k, r.v)
		}
		return freshCopy(sets[r.set]).Forward(exec, r.x)
	}
	return measureServe(serveWorkload{
		name:      "serve-gemm",
		rates:     gemmRates,
		shard:     true,
		journaled: true,
		warm: func(p *servePool) error {
			for i := 0; i < 4; i++ {
				bound := p.sched.Bind(context.Background())
				run(bound, gemmRequestAt(o.seed, streamWarm, i))
				if err := bound.Err(); err != nil {
					return err
				}
			}
			return nil
		},
		request: func(p *servePool, t *tracer, i int) ([]servedOp, error) {
			r := gemmRequestAt(o.seed, streamRequest, i)
			return tracedRequest(t, func(req int64) ([]servedOp, error) {
				var id int64
				if t != nil {
					id = t.newID()
				}
				bound, be := bind(p, t, req, id)
				chk := &checkBackend{b: be}
				if t == nil {
					run(chk, r)
					return chk.ops, bound.Err()
				}
				start := t.now()
				run(chk, r)
				name := "nn.forward"
				if r.attention {
					name = "nn.attention"
				}
				t.recordNN(name, id, req, start, t.now(), be.(*opBackend).total)
				return chk.ops, bound.Err()
			})
		},
		macs: func(i int) int64 {
			if i%4 == 3 {
				return attnMACs.macs
			}
			return mlpMACs.macs
		},
	}, o, t)
}

// runCalibrate measures a serve workload's closed-loop capacity: as
// many callers as the pool can batch keep one request each in flight
// for span, and capacity is completed requests per second. The
// committed rates sit below it (README.md).
func runCalibrate(name string, seed int64, span time.Duration, out io.Writer) error {
	var rates serveRates
	var one func(p *servePool, i int) error
	switch name {
	case "serve-cnn":
		rates = cnnRates
		model := inference.TinyCNN(3, servedSize, poolSeed)
		one = func(p *servePool, i int) error {
			bound := p.sched.Bind(context.Background())
			model.Run(bound, cnnInput(seed, streamCalibrate, i, servedSize))
			return bound.Err()
		}
	case "serve-gemm":
		rates = gemmRates
		sets := mlpWeightSets()
		one = func(p *servePool, i int) error {
			r := gemmRequestAt(seed, streamCalibrate, i)
			bound := p.sched.Bind(context.Background())
			if r.attention {
				nn.Attention(bound, r.q, r.k, r.v)
			} else {
				freshCopy(sets[r.set]).Forward(bound, r.x)
			}
			return bound.Err()
		}
	default:
		return fmt.Errorf("--calibrate applies to serve-cnn and serve-gemm, not %q", name)
	}
	p, err := newPool(name == "serve-gemm", name == "serve-gemm", nil)
	if err != nil {
		return err
	}
	callers := poolSize * maxBatch
	var done, failed atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(span)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := one(p, int(next.Add(1))); err != nil {
					failed.Add(1)
					continue
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if _, err := p.close(); err != nil {
		return err
	}
	capacity := float64(done.Load()) / elapsed.Seconds()
	fmt.Fprintf(out, "%s: closed-loop capacity %.1f req/s with %d callers on %d procs (%d failed)\n", name, capacity, callers, procs, failed.Load())
	fmt.Fprintf(out, "%s: committed low %g req/s (%.2f of capacity), high %g req/s (%.2f of capacity), SLO %v\n",
		name, rates.low, rates.low/capacity, rates.high, rates.high/capacity, rates.slo)
	return nil
}
