package core

import "albireo/internal/tensor"

// The tile plane. Albireo generates a layer's input signals once per
// cycle and broadcasts them to all Ng PLCGs, each of which applies its
// own kernel to them (Figure 6a). The simulator does the same: before
// a layer fans out, the calling goroutine lays out every activation
// tile the layer will drive exactly once, into one chip-owned plane,
// and every kernel on every group points its slots at those tiles
// instead of gathering its own copy.
//
// A tile is the tap-major Nm x Nd activation matrix of one PLCU cycle:
// tile[t*Nd+d] is the quantized activation column d multiplies with
// weight tap t. Window layers (dense and depthwise convolution) hold
// one tile per (output row oy, column tile xt, input channel z, tap
// chunk ci) at index ((oy*nxt+xt)*Z+z)*nchunks+ci, so the slots a
// group drives for one output tile are adjacent. Block layers
// (pointwise, FC and both GEMM passes) hold one tile per (pixel tile
// pt, block b) at index pt*nblocks+b.
//
// The plane is written only before fanOut offers the job to any
// helper, and only read while the layer runs. The hand-off (the
// channel send and the job mutex a helper joins under) orders every
// write before every read, so helpers read the plane without locks.
// Its backing array grows to the largest layer seen and is then
// reused.

// tilePlane returns the chip's tile plane sized for n tiles, growing
// the backing array only when a layer needs more than any before it.
func (c *Chip) tilePlane(n int) []float64 {
	n *= c.cfg.Nm * c.cfg.Nd
	if cap(c.tiles) < n {
		c.tiles = make([]float64, n)
	}
	return c.tiles[:n]
}

// tile returns tile i of the running layer's plane.
func (j *layerJob) tile(i int) []float64 {
	tl := j.c.cfg.Nm * j.c.cfg.Nd
	return j.tiles[i*tl : (i+1)*tl : (i+1)*tl]
}

// gatherWindowTiles fills a window layer's plane from the quantized
// input volume: row t of tile (oy, xt, z, ci) holds, for each column
// d, the activation under tap t of chunk ci for output column
// xt*nd+d. Rows past the chunk's tap count are zeroed explicitly -
// their compiled weight codes can be non-zero under StuckMZM faults or
// the voltage-domain DAC grid. Columns past the output row are
// gathered like the others: their wavelengths still leak into the
// valid columns through crosstalk.
//
//hot:per-layer activation gather; must not allocate.
func gatherWindowTiles(tiles []float64, qa *tensor.Volume, by, nxt, stride, pad int, chunks []tapChunk, nm, nd int) {
	tl := nm * nd
	i := 0
	for oy := 0; oy < by; oy++ {
		ay0 := oy*stride - pad
		for xt := 0; xt < nxt; xt++ {
			ax0 := xt*nd*stride - pad
			for z := 0; z < qa.Z; z++ {
				for ci := range chunks {
					ch := &chunks[ci]
					tile := tiles[i : i+tl : i+tl]
					i += tl
					for t := 0; t < nm; t++ {
						row := tile[t*nd : (t+1)*nd]
						if t >= len(ch.ky) {
							clear(row)
							continue
						}
						ay := ay0 + ch.ky[t]
						if ay < 0 || ay >= qa.Y {
							clear(row)
							continue
						}
						src := qa.Data[(z*qa.Y+ay)*qa.X : (z*qa.Y+ay+1)*qa.X]
						ax := ax0 + ch.kx[t]
						for d := range row {
							if x := ax + d*stride; x >= 0 && x < qa.X {
								row[d] = src[x]
							} else {
								row[d] = 0
							}
						}
					}
				}
			}
		}
	}
}

// gatherBlockTiles fills a block layer's plane from nz reduction
// elements of npix pixels each (element z of pixel p at qa[z*npix+p]):
// row t of tile (pt, b) carries element b*nm+t of pixels pt*nd..+nd-1,
// zero past the last element or pixel.
//
//hot:per-layer activation gather; must not allocate.
func gatherBlockTiles(tiles, qa []float64, nz, npix, nblocks, nm, nd int) {
	tl := nm * nd
	i := 0
	for p0 := 0; p0 < npix; p0 += nd {
		for b := 0; b < nblocks; b++ {
			tile := tiles[i : i+tl : i+tl]
			i += tl
			for t := 0; t < nm; t++ {
				row := tile[t*nd : (t+1)*nd]
				z := b*nm + t
				for d := range row {
					if z < nz && p0+d < npix {
						row[d] = qa[z*npix+p0+d]
					} else {
						row[d] = 0
					}
				}
			}
		}
	}
}
