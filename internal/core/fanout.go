package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"albireo/internal/obs"
)

// Every layer runs its kernels on all active PLCGs at once, as the
// hardware does (Figure 6a: Ng groups apply different kernels to one
// broadcast input). Kernel m belongs to active-group position
// m % len(active) - the round-robin assignGroup implements - and one
// goroutine runs all of a position's kernels in ascending order. Each
// PLCG therefore sees exactly the kernel sequence, and draws exactly
// the noise samples, of a serial walk over m, and touches only its own
// scratch arena: the result is bit-identical however the positions
// are spread over goroutines.
//
// Goroutines come from one process-wide pool of GOMAXPROCS-1 parked
// helpers started at package init. A layer offers its job to idle
// helpers without blocking and then drains positions itself, so a
// busy pool (several chips running at once) degrades to serial
// execution instead of queueing or deadlocking, and however many chips
// share the host, layers add at most GOMAXPROCS-1 goroutines to their
// callers'. Once the caller has drained, it waits only for helpers
// that already joined: a helper the OS has not scheduled yet finds the
// job closed and parks again, so a stalled thread cannot hold up a
// layer it did no work for. The helpers live as long as the process:
// they hold no resources beyond their stacks and are parked whenever
// no layer runs.

// helpers hands layer jobs to the pool. It is unbuffered, so an offer
// succeeds only when a helper is parked idle.
var helpers chan *layerJob

func init() {
	helpers = make(chan *layerJob)
	for i := 1; i < runtime.GOMAXPROCS(0); i++ {
		go helper()
	}
}

// helper is one pool goroutine: it drains every job it is handed and
// can still join.
func helper() {
	for j := range helpers {
		if j.join() {
			j.drain()
			j.wg.Done()
		}
	}
}

// layerArgs describes one layer's kernel loop. A window layer (dense
// or depthwise convolution) streams a by x bx output plane; a block
// layer (pointwise, FC, GEMM) streams npix pixels. Either way the
// activations come from the layer's tile plane (tiles.go) and kernel
// m's outputs land in dst[m*npix:(m+1)*npix] (npix = by*bx for
// windows).
type layerArgs struct {
	window, depthwise bool
	tiles             []float64
	pr                *weightProgram
	sp                *obs.Span
	dst               []float64
	kernels           int
	// by, bx shape a window layer's output plane; nxt is its column
	// tiles per row and tz the input channels in its tile plane.
	by, bx, nxt, tz int
	// npix is a block layer's pixel count.
	npix int
	// relu clamps the write-back; subtract makes it dst -= v (the
	// negative pass of a signed GEMM).
	relu, subtract bool
	outScale       float64
	shard          ShardSpec
}

// layerJob is the chip-owned, reused fan-out descriptor of the running
// layer, so a steady-state layer allocates nothing to fan out.
type layerJob struct {
	layerArgs
	c *Chip
	// npos is the number of active-group positions; next hands them
	// out.
	npos int
	next atomic.Int64
	// wg counts the helpers that joined the layer.
	wg sync.WaitGroup
	// mu guards open, which is true while helpers may join, and
	// panicked, the first panic a position raised, re-raised on the
	// calling goroutine after the join.
	mu       sync.Mutex
	open     bool
	panicked any
}

// fanOut runs one layer's kernel loop across every active PLCG and
// returns once all of them are done. A panic on any goroutine is
// re-raised here, on the caller's.
func (c *Chip) fanOut(args layerArgs) {
	j := &c.job
	j.mu.Lock()
	j.layerArgs, j.c, j.npos, j.open = args, c, len(c.active), true
	j.next.Store(0)
	j.mu.Unlock()
offer:
	for i := 1; i < j.npos; i++ {
		select {
		case helpers <- j:
		default:
			break offer // no helper is idle
		}
	}
	j.drain()
	j.mu.Lock()
	j.open = false
	j.mu.Unlock()
	j.wg.Wait()
	if p := j.panicked; p != nil {
		j.panicked = nil
		panic(p) //lint:ignore exit-hygiene re-raises a kernel panic recovered on a pool goroutine
	}
}

// join enlists a helper in the job's running layer, reporting false
// once the caller has stopped waiting for helpers.
func (j *layerJob) join() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.open {
		j.wg.Add(1)
	}
	return j.open
}

// drain claims group positions until none remain and runs each
// position's owned kernels in ascending order.
//
//hot:per-layer fan-out worker; must not allocate.
func (j *layerJob) drain() {
	defer j.capture()
	for pos := int(j.next.Add(1)) - 1; pos < j.npos; pos = int(j.next.Add(1)) - 1 {
		for m := pos; m < j.kernels; m += j.npos {
			if !j.shard.Owns(m) {
				continue
			}
			if j.window {
				j.windowKernel(m)
			} else {
				j.blockKernel(m)
			}
		}
	}
}

// capture recovers a panic raised while draining, keeping the first.
func (j *layerJob) capture() {
	if r := recover(); r != nil {
		j.mu.Lock()
		if j.panicked == nil {
			j.panicked = r
		}
		j.mu.Unlock()
	}
}
