package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// tailLadder holds the percentiles a tail is read from: the highest one
// that still has at least minBeyond samples above it, so the tail of a
// short run is a lower percentile, never a guess.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// dist summarises one latency sample set in milliseconds.
type dist struct {
	N             int
	P50           float64
	TailPct       float64
	Tail          float64
	Blocks        int       // blocks p50 and tail are medians over (0: none)
	BlockTails    []float64 // each block's tail
	P90, P95, P99 float64   // over all samples, for the summary
}

// summarize returns the median of xs and its tailPct percentile
// (nearest rank).
func summarize(xs []float64, tailPct float64) dist {
	if len(xs) == 0 {
		return dist{TailPct: tailPct}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{N: len(s), P50: rank(s, 50), TailPct: tailPct, Tail: rank(s, tailPct),
		P90: rank(s, 90), P95: rank(s, 95), P99: rank(s, 99)}
}

// e2eTailPct caps the end-to-end tails: p90 of a heavy block (or of a
// sim-cnn run) leaves at least minBeyond samples beyond it in every
// workload, while p95 and p99 moved by more than a quarter from run
// to run on the 2-core host.
const e2eTailPct = 90

// tailFor is the highest ladder percentile that leaves at least
// minBeyond of n samples above it. Callers size it from a sample count
// fixed in advance (an arrival schedule's length), so the percentile a
// workload reports does not move from run to run.
func tailFor(n int) float64 {
	for _, q := range tailLadder {
		if n-rankIndex(n, q)-1 >= minBeyond {
			return q
		}
	}
	return 50
}

// blockDist summarises latencies measured in blocks of time and
// reports the least disturbed block: p50 is the lowest block p50, and
// the tailPct tail the lowest block tail unless pooledTail asks for it
// over all samples (for blocks too small to leave minBeyond samples
// past it). Other tenants of the host only ever add time, and they
// stall some blocks of a run, while a change to the program moves
// every block. The p90, p95 and p99 over all samples are kept for the
// summary.
func blockDist(blocks [][]float64, tailPct float64, pooledTail bool) dist {
	var all, p50s, tails []float64
	for _, b := range blocks {
		if len(b) == 0 {
			continue
		}
		d := summarize(b, tailPct)
		p50s, tails = append(p50s, d.P50), append(tails, d.Tail)
		all = append(all, b...)
	}
	d := summarize(all, tailPct)
	d.P50, d.Blocks = slices.Min(p50s), len(p50s)
	if !pooledTail {
		d.Tail, d.BlockTails = slices.Min(tails), tails
	}
	return d
}

// rankIndex is the zero-based nearest-rank index of percentile q.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// rank reads percentile q from sorted s.
func rank(s []float64, q float64) float64 { return s[rankIndex(len(s), q)] }

// median returns the middle of xs (the mean of the two middles for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// relRMS is RMS(got-want)/RMS(want), the scale-free divergence the
// accuracy guard also uses; an all-zero reference is scored on the
// absolute RMS. Mismatched lengths count as total divergence.
func relRMS(got, want []float64) float64 {
	if len(got) != len(want) || len(want) == 0 {
		return math.Inf(1)
	}
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den > 0 {
		return math.Sqrt(num / den)
	}
	return math.Sqrt(num / float64(len(want)))
}
