// Package motion implements block motion estimation and motion
// compensation for the vbench codec: SAD block matching, full-search
// and fast (diamond, hexagon) search strategies, and half/quarter-pel
// refinement over a shared bilinear interpolation kernel.
//
// Motion vectors are expressed in quarter-pel luma units throughout.
// The interpolation functions are the normative motion-compensation
// path: the encoder's reconstruction loop and the decoder both call
// them, so prediction is bit-identical on both sides.
//
// Reference planes are bordered (see Plane and EdgeReach): every
// prediction and SAD clamps its block origin once and then runs the
// clamp-free kernels of internal/codec/kern, so no path clamps per
// sample.
package motion

import (
	"math"

	"vbench/internal/codec/bitstream"
	"vbench/internal/codec/kern"
	"vbench/internal/perf"
)

// MV is a motion vector in quarter-pel luma units.
type MV struct {
	X, Y int32
}

// Plane is a read-only view of one sample plane: W×H samples with row
// stride Stride, surrounded on every side by Border samples that
// replicate the nearest edge sample. Sample (x, y), for x in
// [−Border, W+Border) and y in [−Border, H+Border), lives at
// Pix[p.Off(x, y)]. A source plane has no border (Stride W, Border 0);
// a reference plane — anything passed as ref below — must carry a
// border of at least bw+EdgeReach samples for the largest block width
// bw (and bh+EdgeReach for the largest height) it is predicted with.
type Plane struct {
	Pix    []uint8
	W, H   int
	Stride int
	Border int
}

// NewPlane returns the unbordered view of w×h row-major samples.
func NewPlane(pix []uint8, w, h int) Plane {
	return Plane{Pix: pix, W: w, H: h, Stride: w}
}

// Off returns the index in Pix of sample (x, y).
func (p Plane) Off(x, y int) int {
	return (y+p.Border)*p.Stride + x + p.Border
}

// ExtendBorder fills the border by replicating the outermost interior
// row and column, corners included. The reconstruction loop runs it
// once per plane after deblocking, so a reference plane reads as the
// edge-clamped picture anywhere inside its border.
func (p Plane) ExtendBorder() {
	b := p.Border
	if b == 0 {
		return
	}
	for y := 0; y < p.H; y++ {
		row := p.Pix[p.Off(-b, y):p.Off(p.W+b, y)]
		left, right := row[b], row[b+p.W-1]
		for x := 0; x < b; x++ {
			row[x] = left
			row[b+p.W+x] = right
		}
	}
	n := p.W + 2*b
	top := p.Pix[p.Off(-b, 0):][:n]
	bot := p.Pix[p.Off(-b, p.H-1):][:n]
	for y := 1; y <= b; y++ {
		copy(p.Pix[p.Off(-b, -y):][:n], top)
		copy(p.Pix[p.Off(-b, p.H-1+y):][:n], bot)
	}
}

// EdgeReach is the border, beyond the block size, that motion
// compensation reads. Every entry point below first clamps the block's
// integer origin (ix, iy) into [−(bw+3), W+2] × [−(bh+3), H+2]
// (clampOrigin); the widest read, the 4-tap filter, then touches
// columns ix−1 … ix+bw+1, so the reads stay within bw+4 samples of the
// picture on every side.
//
// The clamp is exact. A window whose origin lies left of −(bw+3)
// reads only columns < 0, which the edge-clamped picture replicates
// from column 0, row by row; moved right to −(bw+3) it still reads
// only columns < 0, so every tap sees the same sample as before. The
// same holds right of W+2 (columns ≥ W replicate column W−1) and in
// the vertical. A border of bw+EdgeReach therefore serves any vector,
// whatever the search range or a hostile bitstream says.
const EdgeReach = 4

// clampOrigin clamps a block's integer origin as described at
// EdgeReach.
func (p Plane) clampOrigin(ix, iy, bw, bh int) (int, int) {
	return clampInt(ix, -(bw + 3), p.W+2), clampInt(iy, -(bh + 3), p.H+2)
}

// SAD returns the sum of absolute differences between the bw×bh block
// of cur at (cx, cy) — which must lie fully inside cur — and the block
// of ref at (rx, ry), which may lie anywhere: samples outside ref
// replicate its edges.
func SAD(cur Plane, cx, cy int, ref Plane, rx, ry int, bw, bh int) int64 {
	sad, _ := sadThresh(cur, cx, cy, ref, rx, ry, bw, bh, math.MaxInt64)
	return sad
}

// sadThresh is SAD with deterministic early termination (see
// kern.SADThresh): once the running sum reaches thresh the scan stops
// and returns the partial sum with early=true. Abort depends only on
// the pixel data and thresh, never on timing, so results are
// bit-reproducible. Callers must only use aborted values in
// comparisons they are guaranteed to lose (cost ≥ thresh + mvCost ≥
// incumbent best).
func sadThresh(cur Plane, cx, cy int, ref Plane, rx, ry int, bw, bh int, thresh int64) (int64, bool) {
	rx, ry = ref.clampOrigin(rx, ry, bw, bh)
	return kern.SADThresh(cur.Pix[cur.Off(cx, cy):], cur.Stride, ref.Pix[ref.Off(rx, ry):], ref.Stride, bw, bh, thresh)
}

// Scratch holds the reusable buffers of one motion-compensation
// caller, hoisted out of the per-call hot path so steady-state
// interpolation performs no heap allocations. Buffers grow on demand
// and are retained across calls; each Scratch must be owned by a
// single goroutine (the codec gives every slice encoder its own). A
// nil *Scratch is valid and falls back to per-call allocation.
type Scratch struct {
	tmp []int32

	// SADEarlyExits counts SAD evaluations the threshold kernels
	// aborted early during searches using this Scratch. Telemetry
	// only: the count is deterministic for a given input but feeds no
	// coding decision, and perf.Counters op counts stay at their
	// nominal (full-block) values regardless of aborts.
	SADEarlyExits int64
}

// tmpBuf returns an n-element intermediate buffer for the separable
// interpolation passes.
func (s *Scratch) tmpBuf(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	if cap(s.tmp) < n {
		s.tmp = make([]int32, n)
	}
	return s.tmp[:n]
}

// sharpTaps are the 4-tap Catmull-Rom interpolation kernels for
// quarter-pel fractions 1..3 (×64). The HEVC-generation encoders use
// these instead of bilinear interpolation: the sharper kernel
// preserves texture under motion, reducing residual energy — one of
// the real compression advantages of the newer codecs.
var sharpTaps = [4][4]int32{
	{0, 64, 0, 0},
	{-5, 56, 15, -2},
	{-4, 36, 36, -4},
	{-2, 15, 56, -5},
}

// copyBlock writes the bw×bh block of ref at the (clamped) integer
// origin (ix, iy) into dst (stride bw).
func copyBlock(dst []uint8, ref Plane, ix, iy, bw, bh int) {
	ix, iy = ref.clampOrigin(ix, iy, bw, bh)
	off := ref.Off(ix, iy)
	for y := 0; y < bh; y++ {
		copy(dst[y*bw:(y+1)*bw], ref.Pix[off+y*ref.Stride:])
	}
}

// PredictLumaSharp writes the motion-compensated prediction like
// PredictLuma but interpolates sub-pel positions with the separable
// 4-tap kernel (applied horizontally then vertically with
// intermediate 14-bit precision; see kern.PredictSharp). sc provides
// the intermediate-pass buffer; nil allocates one per call.
func PredictLumaSharp(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int, sc *Scratch) {
	ix := bx + int(mv.X>>2)
	iy := by + int(mv.Y>>2)
	fx := int(mv.X & 3)
	fy := int(mv.Y & 3)
	if fx == 0 && fy == 0 {
		copyBlock(dst, ref, ix, iy, bw, bh)
		return
	}
	ix, iy = ref.clampOrigin(ix, iy, bw, bh)
	kern.PredictSharp(dst, bw, ref.Pix[ref.Off(ix-1, iy-1):], ref.Stride, &sharpTaps[fx], &sharpTaps[fy], sc.tmpBuf(bw*(bh+3)), bw, bh)
}

// PredictLuma writes the motion-compensated bw×bh prediction of the
// block at (bx, by) with motion vector mv (quarter-pel) from ref into
// dst (row-major, stride bw). Sub-pel positions use bilinear
// interpolation with 1/16 rounding; out-of-frame references replicate
// edges. Integer vectors are row copies; sub-pel vectors take the SWAR
// kernel.
func PredictLuma(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int) {
	ix := bx + int(mv.X>>2)
	iy := by + int(mv.Y>>2)
	fx := int(mv.X & 3)
	fy := int(mv.Y & 3)
	if fx == 0 && fy == 0 {
		copyBlock(dst, ref, ix, iy, bw, bh)
		return
	}
	ix, iy = ref.clampOrigin(ix, iy, bw, bh)
	w00 := (4 - fx) * (4 - fy)
	w10 := fx * (4 - fy)
	w01 := (4 - fx) * fy
	w11 := fx * fy
	kern.PredictBilinear(dst, bw, ref.Pix[ref.Off(ix, iy):], ref.Stride, w00, w10, w01, w11, 8, 4, bw, bh)
}

// PredictChroma writes the bw×bh chroma prediction for chroma-plane
// block position (bx, by) using the luma-domain quarter-pel vector mv,
// which has eighth-pel precision in the half-resolution chroma plane.
func PredictChroma(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int) {
	ix := bx + int(mv.X>>3)
	iy := by + int(mv.Y>>3)
	fx := int(mv.X & 7)
	fy := int(mv.Y & 7)
	if fx == 0 && fy == 0 {
		copyBlock(dst, ref, ix, iy, bw, bh)
		return
	}
	ix, iy = ref.clampOrigin(ix, iy, bw, bh)
	w00 := (8 - fx) * (8 - fy)
	w10 := fx * (8 - fy)
	w01 := (8 - fx) * fy
	w11 := fx * fy
	kern.PredictBilinear(dst, bw, ref.Pix[ref.Off(ix, iy):], ref.Stride, w00, w10, w01, w11, 32, 6, bw, bh)
}

// sadSubpelThresh computes the SAD of the current block against the
// interpolated reference at quarter-pel vector mv, aborting (like
// sadThresh) once the running sum reaches thresh. Sub-pel windows take
// the fused SWAR interpolate+SAD kernel, which never materializes the
// prediction; the result is the exact PredictLuma+SAD value when not
// aborted.
func sadSubpelThresh(cur Plane, cx, cy int, ref Plane, mv MV, bw, bh int, thresh int64) (int64, bool) {
	ix := cx + int(mv.X>>2)
	iy := cy + int(mv.Y>>2)
	fx := int(mv.X & 3)
	fy := int(mv.Y & 3)
	if fx == 0 && fy == 0 {
		return sadThresh(cur, cx, cy, ref, ix, iy, bw, bh, thresh)
	}
	ix, iy = ref.clampOrigin(ix, iy, bw, bh)
	w00 := (4 - fx) * (4 - fy)
	w10 := fx * (4 - fy)
	w01 := (4 - fx) * fy
	w11 := fx * fy
	return kern.BilinearSADThresh(cur.Pix[cur.Off(cx, cy):], cur.Stride, ref.Pix[ref.Off(ix, iy):], ref.Stride,
		w00, w10, w01, w11, 8, 4, bw, bh, thresh)
}

// PredSAD returns the SAD between the bw×bh block of cur at (bx, by)
// and its motion-compensated prediction from ref at quarter-pel vector
// mv. Work is accounted into c.
func PredSAD(cur Plane, bx, by int, ref Plane, mv MV, bw, bh int, c *perf.Counters) int64 {
	sad, _ := PredSADThresh(cur, bx, by, ref, mv, bw, bh, math.MaxInt64, c)
	return sad
}

// PredSADThresh is PredSAD with deterministic early termination: if
// the SAD reaches thresh the scan aborts, returning a partial sum
// ≥ thresh and early=true. Counter accounting is identical to PredSAD
// — op counts are nominal full-block work, unaffected by aborts, so
// modeled speeds stay deterministic (see docs/FORMAT.md).
func PredSADThresh(cur Plane, bx, by int, ref Plane, mv MV, bw, bh int, thresh int64, c *perf.Counters) (int64, bool) {
	blockOps := int64(bw * bh)
	if mv.X&3 == 0 && mv.Y&3 == 0 {
		c.Count(perf.KSAD, blockOps)
	} else {
		c.Count(perf.KInterp, blockOps*4)
		c.Count(perf.KSAD, blockOps)
	}
	return sadSubpelThresh(cur, bx, by, ref, mv, bw, bh, thresh)
}

// SearchKind selects the integer-pel search strategy.
type SearchKind int

// Available search strategies, cheapest to most exhaustive.
const (
	SearchDiamond SearchKind = iota
	SearchHex
	SearchFull
)

// String names the search strategy.
func (k SearchKind) String() string {
	switch k {
	case SearchDiamond:
		return "dia"
	case SearchHex:
		return "hex"
	case SearchFull:
		return "esa"
	}
	return "unknown"
}

// Params configures a motion search.
type Params struct {
	Kind SearchKind
	// Range is the integer search radius in pixels.
	Range int
	// SubPel selects refinement depth: 0 integer, 1 half-pel,
	// 2 quarter-pel.
	SubPel int
	// Lambda weights motion-vector rate against distortion
	// (cost = SAD + Lambda·bits(mvd)); it scales with quantizer.
	Lambda int64
}

// mvdBits estimates the coded size of a motion-vector difference.
func mvdBits(mv, pred MV) int64 {
	return int64(bitstream.SEBits(mv.X-pred.X) + bitstream.SEBits(mv.Y-pred.Y))
}

// intSearcher evaluates integer-pel candidates for one Search call.
// It replaces the closure the search loops used to capture: a plain
// struct passed by pointer stays on the caller's stack, where the
// escaping closure (and every variable it captured) cost a handful of
// heap allocations per macroblock.
type intSearcher struct {
	cur, ref Plane
	bx, by   int
	bw, bh   int
	pred     MV
	lambda   int64
	evals    int
	// best mirrors the caller's incumbent best cost so SAD evaluation
	// can stop as soon as a candidate is provably losing. earlyExits
	// counts aborted evaluations (telemetry only).
	best       int64
	earlyExits int64
}

// cost returns SAD + λ·bits(mvd) for the integer-pel vector (mx, my).
// The SAD scan aborts once it reaches best−mvCost: an aborted return
// value is ≥ best, so the caller's `< best` comparison loses exactly
// as it would on the full SAD, and best (always set from exact,
// non-aborted evaluations) follows the same trajectory as a full
// search — the selected vector and cost are bit-identical.
func (s *intSearcher) cost(mx, my int) int64 {
	s.evals++
	mv := MV{int32(mx) * 4, int32(my) * 4}
	mvCost := s.lambda * mvdBits(mv, s.pred) / 16
	sad, early := sadThresh(s.cur, s.bx, s.by, s.ref, s.bx+mx, s.by+my, s.bw, s.bh, s.best-mvCost)
	if early {
		s.earlyExits++
	}
	return sad + mvCost
}

// Search finds a motion vector for the bw×bh block at (bx, by) of cur
// in ref. pred is the motion-vector predictor used for rate costing
// and as the search start point. sc, if not nil, collects the
// early-exit telemetry. Returns the best vector (quarter-pel) and its
// cost. Work is accounted into c.
func Search(cur Plane, bx, by int, ref Plane, pred MV, bw, bh int, p Params, sc *Scratch, c *perf.Counters) (MV, int64) {
	blockOps := int64(bw * bh)
	s := intSearcher{cur: cur, ref: ref, bx: bx, by: by, bw: bw, bh: bh, pred: pred, lambda: p.Lambda, best: math.MaxInt64}

	// Start from the predictor rounded to integer pel, clamped to range.
	startX := clampInt(int(pred.X)/4, -p.Range, p.Range)
	startY := clampInt(int(pred.Y)/4, -p.Range, p.Range)

	bestX, bestY := 0, 0
	bestCost := s.cost(0, 0)
	s.best = bestCost
	if startX != 0 || startY != 0 {
		if c := s.cost(startX, startY); c < bestCost {
			bestCost, bestX, bestY = c, startX, startY
			s.best = c
		}
	}

	switch p.Kind {
	case SearchFull:
		for my := -p.Range; my <= p.Range; my++ {
			for mx := -p.Range; mx <= p.Range; mx++ {
				if mx == 0 && my == 0 {
					continue
				}
				if c := s.cost(mx, my); c < bestCost {
					bestCost, bestX, bestY = c, mx, my
					s.best = c
				}
			}
		}
	case SearchDiamond:
		bestX, bestY, bestCost = patternSearch(bestX, bestY, bestCost, p.Range, diamondLarge[:], diamondSmall[:], &s)
	case SearchHex:
		bestX, bestY, bestCost = patternSearch(bestX, bestY, bestCost, p.Range, hexPattern[:], diamondSmall[:], &s)
	}
	c.Count(perf.KSAD, blockOps*int64(s.evals))
	c.DataDepBranches += int64(s.evals)

	best := MV{int32(bestX) * 4, int32(bestY) * 4}
	if p.SubPel == 0 {
		if sc != nil {
			sc.SADEarlyExits += s.earlyExits
		}
		return best, bestCost
	}

	// Sub-pel refinement: half-pel, then quarter-pel, each testing the
	// 8 neighbours of the incumbent. As in the integer stage, each
	// candidate's SAD aborts once it reaches bestCost−mvCost; aborted
	// values cannot win the comparison, so the refinement trajectory
	// matches the full evaluation exactly.
	subEvals := 0
	steps := [2]int32{2, 1}
	nSteps := 1
	if p.SubPel >= 2 {
		nSteps = 2
	}
	for _, step := range steps[:nSteps] {
		improved := true
		for improved {
			improved = false
			for _, d := range neighbours8 {
				cand := MV{best.X + d[0]*step, best.Y + d[1]*step}
				if int(cand.X)/4 < -p.Range || int(cand.X)/4 > p.Range ||
					int(cand.Y)/4 < -p.Range || int(cand.Y)/4 > p.Range {
					continue
				}
				subEvals++
				mvCost := p.Lambda * mvdBits(cand, pred) / 16
				sad, early := sadSubpelThresh(cur, bx, by, ref, cand, bw, bh, bestCost-mvCost)
				if early {
					s.earlyExits++
				}
				if cost := sad + mvCost; cost < bestCost {
					bestCost = cost
					best = cand
					improved = true
				}
			}
		}
	}
	// Each sub-pel eval interpolates and compares the whole block.
	// Counts are nominal: an early-terminated SAD still counts the
	// full block, keeping modeled speeds independent of abort points.
	c.Count(perf.KInterp, blockOps*int64(subEvals)*4)
	c.Count(perf.KSAD, blockOps*int64(subEvals))
	c.DataDepBranches += int64(subEvals)
	if sc != nil {
		sc.SADEarlyExits += s.earlyExits
	}
	return best, bestCost
}

var neighbours8 = [8][2]int32{
	{-1, -1}, {0, -1}, {1, -1},
	{-1, 0}, {1, 0},
	{-1, 1}, {0, 1}, {1, 1},
}

var diamondLarge = [8][2]int{{0, -2}, {1, -1}, {2, 0}, {1, 1}, {0, 2}, {-1, 1}, {-2, 0}, {-1, -1}}
var diamondSmall = [4][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}}
var hexPattern = [6][2]int{{-2, 0}, {-1, -2}, {1, -2}, {2, 0}, {1, 2}, {-1, 2}}

// patternSearch iterates a coarse pattern until no candidate improves,
// then refines once with a fine pattern.
func patternSearch(bx, by int, bestCost int64, searchRange int, coarse, fine [][2]int, s *intSearcher) (int, int, int64) {
	for iter := 0; iter < 4*searchRange+16; iter++ {
		improved := false
		for _, d := range coarse {
			x, y := bx+d[0], by+d[1]
			if x < -searchRange || x > searchRange || y < -searchRange || y > searchRange {
				continue
			}
			if sc := s.cost(x, y); sc < bestCost {
				bestCost, bx, by = sc, x, y
				s.best = sc
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	for _, d := range fine {
		x, y := bx+d[0], by+d[1]
		if x < -searchRange || x > searchRange || y < -searchRange || y > searchRange {
			continue
		}
		if sc := s.cost(x, y); sc < bestCost {
			bestCost, bx, by = sc, x, y
			s.best = sc
		}
	}
	return bx, by, bestCost
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MedianMV returns the component-wise median of three motion vectors,
// the standard H.264 motion-vector predictor.
func MedianMV(a, b, c MV) MV {
	return MV{median3(a.X, b.X, c.X), median3(a.Y, b.Y, c.Y)}
}

func median3(a, b, c int32) int32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
