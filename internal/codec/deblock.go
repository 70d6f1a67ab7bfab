package codec

import (
	"vbench/internal/codec/motion"
	"vbench/internal/codec/transform"
	"vbench/internal/perf"
	"vbench/internal/video"
)

// In-loop deblocking filter. Block-transform codecs show step
// artifacts at block boundaries at moderate-to-high QP; the filter
// smooths boundary samples when the discontinuity is small enough to
// be a coding artifact rather than a real edge. It runs identically in
// the encoder's reconstruction loop and the decoder, so filtered
// frames remain bit-identical references.

// deblockThresholds derives the filter thresholds from a quantizer:
// alpha bounds the cross-edge step, beta bounds same-side gradients,
// and tc clamps the correction.
func deblockThresholds(qp int) (alpha, beta, tc int) {
	step := int(transform.QStepQ6(qp)) // Q6
	alpha = step >> 6
	alpha += step >> 7 // 1.5 × qstep
	if alpha < 2 {
		alpha = 2
	}
	if alpha > 60 {
		alpha = 60
	}
	beta = alpha/4 + 1
	tc = alpha/6 + 1
	return alpha, beta, tc
}

// deblockFrame filters a bordered reconstruction's interior in place.
// qpGrid holds the per-macroblock quantizers (wMB×hMB).
func deblockFrame(f *video.Frame, qpGrid []int, wMB, hMB int, c *perf.Counters) {
	// Luma: vertical then horizontal edges on the 8×8 grid.
	deblockPlane(reconPlane(f, video.PlaneY), 8, 1, qpGrid, wMB, c)
	// Chroma: macroblock-boundary edges only (8-pixel grid in the
	// half-resolution planes corresponds to 16-pixel luma boundaries).
	deblockPlane(reconPlane(f, video.PlaneCb), 8, 2, qpGrid, wMB, c)
	deblockPlane(reconPlane(f, video.PlaneCr), 8, 2, qpGrid, wMB, c)
}

// deblockPlane filters the interior of one plane. grid is the edge
// spacing in plane pixels; lumaScale is 1 for luma (16-pixel MBs) and
// 2 for chroma (8-pixel MBs in plane coordinates).
func deblockPlane(p motion.Plane, grid, lumaScale int, qpGrid []int, wMB int, c *perf.Counters) {
	mbDim := MBSize / lumaScale
	qpAt := func(x, y int) int {
		mx := x / mbDim
		my := y / mbDim
		idx := my*wMB + mx
		if idx >= len(qpGrid) {
			idx = len(qpGrid) - 1
		}
		return qpGrid[idx]
	}
	pix, w, h, s := p.Pix, p.W, p.H, p.Stride
	var ops int64
	// Vertical edges (filter across columns).
	for x := grid; x < w; x += grid {
		for y := 0; y < h; y++ {
			qp := (qpAt(x-1, y) + qpAt(x, y) + 1) / 2
			alpha, beta, tc := deblockThresholds(qp)
			i := p.Off(x, y)
			filterEdge(pix, i-1, i,
				int(pix[i-2]), int(pix[i-1]), int(pix[i]), int(pix[i+1]),
				alpha, beta, tc)
			ops += 4
		}
	}
	// Horizontal edges (filter across rows).
	for y := grid; y < h; y += grid {
		for x := 0; x < w; x++ {
			qp := (qpAt(x, y-1) + qpAt(x, y) + 1) / 2
			alpha, beta, tc := deblockThresholds(qp)
			i := p.Off(x, y)
			filterEdge(pix, i-s, i,
				int(pix[i-2*s]), int(pix[i-s]), int(pix[i]), int(pix[i+s]),
				alpha, beta, tc)
			ops += 4
		}
	}
	c.Count(perf.KDeblock, ops)
}

// filterEdge applies the weak deblocking filter across one edge given
// sample values p1 p0 | q0 q1 at indices ip0 (p0) and iq0 (q0).
func filterEdge(pix []uint8, ip0, iq0 int, p1, p0, q0, q1 int, alpha, beta, tc int) {
	dp := p0 - q0
	if dp < 0 {
		dp = -dp
	}
	if dp >= alpha {
		return
	}
	d1 := p1 - p0
	if d1 < 0 {
		d1 = -d1
	}
	d2 := q1 - q0
	if d2 < 0 {
		d2 = -d2
	}
	if d1 >= beta || d2 >= beta {
		return
	}
	delta := ((q0-p0)*4 + (p1 - q1) + 4) >> 3
	if delta > tc {
		delta = tc
	}
	if delta < -tc {
		delta = -tc
	}
	pix[ip0] = clip255i(p0 + delta)
	pix[iq0] = clip255i(q0 - delta)
}

func clip255i(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
