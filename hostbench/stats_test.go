package main

import "testing"

func TestBlockDistReportsTheBestBlock(t *testing.T) {
	blocks := make([][]float64, 5)
	for b := range blocks {
		for i := 0; i < 400; i++ {
			blocks[b] = append(blocks[b], float64(i))
		}
	}
	// A stall that only the first block sees must not move p50 or tail.
	blocks[1][0] = 1e6 // nor one slow request in another block
	for i := range blocks[0] {
		blocks[0][i] += 1e6
	}
	d := blockDist(blocks, tailFor(400), false)
	if d.Blocks != 5 || d.TailPct != 95 {
		t.Fatalf("%d blocks at p%g, want 5 at p95", d.Blocks, d.TailPct)
	}
	if d.P50 != 199 || d.Tail != 379 {
		t.Fatalf("p50 %g tail %g, want 199 and 379 (p50 and p95 of 0..399)", d.P50, d.Tail)
	}
	if d.N != 2000 || d.P99 < 1e6 {
		t.Fatalf("whole-rate N=%d p99=%g, want 2000 and the stalled block", d.N, d.P99)
	}
}

func TestBlockDistPooledTail(t *testing.T) {
	blocks := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 100}}
	d := blockDist(blocks, 90, true)
	if d.P50 != 2 || d.Tail != 100 || d.BlockTails != nil {
		t.Fatalf("p50 %g tail %g block tails %v, want the best block's 2, p90 of all = 100, none", d.P50, d.Tail, d.BlockTails)
	}
}
