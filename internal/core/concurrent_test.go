package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"albireo/internal/tensor"
)

// Conv runs every active PLCG concurrently (fanout.go). These tests pin
// its output bits to hashes captured from the serial kernel loop the
// fan-out replaced: PLCGs have private noise streams and each group's
// kernels run in ascending order on one goroutine, so the parallel
// schedule must reproduce the serial bits even with noise enabled.

func TestConvConcurrentBitIdentical(t *testing.T) {
	t.Parallel()
	a := tensor.RandomVolume(6, 10, 10, 301)
	w := tensor.RandomKernels(13, 6, 3, 3, 302) // 13 kernels: uneven groups
	out := NewChip(DefaultConfig()).Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
	if got, want := goldenHash(out.Data), uint64(0x106076ec3bed680d); got != want {
		t.Fatalf("output bits 0x%016x, want serial-era 0x%016x", got, want)
	}
}

func TestConvConcurrentStride(t *testing.T) {
	t.Parallel()
	a := tensor.RandomVolume(4, 9, 9, 303)
	w := tensor.RandomKernels(5, 4, 3, 3, 304)
	out := NewChip(idealConfig()).Conv(a, w, tensor.ConvConfig{Stride: 2, Pad: 1}, false)
	if got, want := goldenHash(out.Data), uint64(0xa581e5c815c1fe68); got != want {
		t.Fatalf("strided output bits 0x%016x, want serial-era 0x%016x", got, want)
	}
}

func TestConvConcurrentFallbacks(t *testing.T) {
	t.Parallel()
	// Depthwise and grouped layers fan out through the same pool and
	// must still be correct.
	chip := NewChip(idealConfig())
	a := tensor.RandomVolume(4, 6, 6, 305)
	dw := tensor.RandomKernels(4, 1, 3, 3, 306)
	out := chip.Conv(a, dw, tensor.ConvConfig{Pad: 1, Depthwise: true}, false)
	want := tensor.Conv(a, dw, tensor.ConvConfig{Pad: 1, Depthwise: true})
	if e := rmsError(out, want); e > 0.1 {
		t.Errorf("depthwise RMS error %.3f", e)
	}
	gw := tensor.RandomKernels(4, 2, 3, 3, 307)
	out2 := chip.Conv(a, gw, tensor.ConvConfig{Pad: 1, Groups: 2}, false)
	want2 := tensor.Conv(a, gw, tensor.ConvConfig{Pad: 1, Groups: 2})
	if e := rmsError(out2, want2); e > 0.1 {
		t.Errorf("grouped RMS error %.3f", e)
	}
}

// TestFanOutSaturatedPoolBitIdentical runs every golden case - noisy
// layers of every mapping, faulted, quarantined and sharded - on
// several chips at once, so layers contend for the process-wide helper
// pool and most of them drain alone. Each chip's bits must still match
// its serial-era hash. check.sh runs it under -race.
func TestFanOutSaturatedPoolBitIdentical(t *testing.T) {
	t.Parallel()
	const copies = 3
	var wg sync.WaitGroup
	for _, gc := range goldenMatrix() {
		for k := 0; k < copies; k++ {
			wg.Add(1)
			go func(gc goldenCase) {
				defer wg.Done()
				if got := goldenHash(gc.run()); got != gc.want {
					t.Errorf("%s on a contended pool: got 0x%016x, want 0x%016x", gc.name, got, gc.want)
				}
			}(gc)
		}
	}
	wg.Wait()
}

// TestFanOutPanicReachesCaller checks helper-panic containment: a
// kernel panic on a pool goroutine is recovered there and re-raised on
// the layer's caller, and the pool goes on serving later layers.
func TestFanOutPanicReachesCaller(t *testing.T) {
	t.Parallel()
	chip := NewChip(DefaultConfig())
	cfg := chip.Config()
	npos := chip.ActiveGroups()
	// One block kernel per group position, with no weight codes
	// compiled for the last kernel: only that position panics.
	bad := layerArgs{
		tiles:   make([]float64, cfg.Nm*cfg.Nd),
		pr:      &weightProgram{nm: cfg.Nm, slotsPer: 1, codes: make([]float64, (npos-1)*cfg.Nm)},
		dst:     make([]float64, npos),
		kernels: npos, npix: 1, outScale: 1,
	}
	for i := 0; i < 10; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("kernel panic did not reach the layer's caller")
				}
			}()
			chip.fanOut(bad)
		}()
	}

	// Hand the job to a helper alone, so the panic is raised on the
	// pool goroutine for certain. A pool of zero helpers (GOMAXPROCS 1
	// at start-up) never takes the offer.
	j := &chip.job
	j.mu.Lock()
	j.layerArgs, j.c, j.npos, j.open = bad, chip, npos, true
	j.next.Store(0)
	j.mu.Unlock()
	select {
	case helpers <- j:
		deadline := time.Now().Add(10 * time.Second)
		for caught := false; !caught; {
			if time.Now().After(deadline) {
				t.Fatal("the helper did not capture the kernel panic")
			}
			runtime.Gosched()
			j.mu.Lock()
			caught = j.panicked != nil
			j.mu.Unlock()
		}
	case <-time.After(time.Second):
		t.Log("no idle pool helper: the helper-only case was not exercised")
	}
	j.mu.Lock()
	j.open = false
	j.mu.Unlock()
	j.wg.Wait()
	j.panicked = nil

	for _, gc := range goldenMatrix()[:3] {
		if got := goldenHash(gc.run()); got != gc.want {
			t.Errorf("%s after a recovered panic: got 0x%016x, want 0x%016x", gc.name, got, gc.want)
		}
	}
	a := tensor.RandomVolume(4, 6, 6, 308)
	w := tensor.RandomKernels(5, 4, 3, 3, 309)
	if out := chip.Conv(a, w, tensor.ConvConfig{Pad: 1}, false); len(out.Data) != 5*6*6 {
		t.Fatalf("the chip that panicked returned %d outputs", len(out.Data))
	}
}
