package motion

import (
	"math"
	"math/rand"
	"testing"

	"vbench/internal/perf"
)

// farReach is how far past an edge the cross-checks place block
// origins: a 64-sample search range plus a block plus the filter
// reach, beyond which the origin clamp makes every position alike.
const farReach = 64 + 16 + EdgeReach

// randPix returns a sample generator with one of several textures.
func randPix(rng *rand.Rand, w, h int, mode int) func(x, y int) uint8 {
	pix := make([]uint8, w*h)
	switch mode {
	case 0:
		rng.Read(pix)
	case 1:
		for i := range pix {
			pix[i] = uint8(255 * rng.Intn(2))
		}
	default:
		base := uint8(rng.Intn(256))
		for i := range pix {
			pix[i] = base + uint8(rng.Intn(5)) - 2
		}
	}
	return func(x, y int) uint8 { return pix[y*w+x] }
}

// randPlane builds a bordered reference plane (border testBorder).
func randPlane(rng *rand.Rand, w, h int, mode int) Plane {
	return borderedPlane(w, h, testBorder, randPix(rng, w, h, mode))
}

// randCur builds an unbordered current (source) plane.
func randCur(rng *rand.Rand, w, h int, mode int) Plane {
	return unbordered(randPlane(rng, w, h, mode))
}

// edgePos returns a block origin anywhere from farReach before the
// start of an n-sample axis to farReach past its end.
func edgePos(rng *rand.Rand, n int) int {
	return rng.Intn(n+2*farReach) - farReach
}

func TestSADMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 3000; iter++ {
		W := 20 + rng.Intn(40)
		H := 20 + rng.Intn(30)
		cur := randCur(rng, W, H, iter%3)
		ref := randPlane(rng, W, H, (iter+1)%3)
		bw := []int{4, 8, 16}[rng.Intn(3)]
		bh := []int{4, 8, 16}[rng.Intn(3)]
		cx := rng.Intn(W - bw + 1)
		cy := rng.Intn(H - bh + 1)
		// Reference positions range far past every edge.
		rx := edgePos(rng, W)
		ry := edgePos(rng, H)

		want := sadRef(cur, cx, cy, ref, rx, ry, bw, bh)
		if got := SAD(cur, cx, cy, ref, rx, ry, bw, bh); got != want {
			t.Fatalf("SAD (%d,%d)->(%d,%d) %dx%d: got %d want %d", cx, cy, rx, ry, bw, bh, got, want)
		}

		exact := want
		for _, th := range []int64{0, 1, exact / 2, exact, exact + 1, 1 << 40} {
			got, early := sadThresh(cur, cx, cy, ref, rx, ry, bw, bh, th)
			if !early && got != exact {
				t.Fatalf("sadThresh(th=%d): complete scan %d want %d", th, got, exact)
			}
			if early && (got < th || exact < th) {
				t.Fatalf("sadThresh(th=%d): bad abort got %d exact %d", th, got, exact)
			}
		}
	}
}

func randMV(rng *rand.Rand, r int) MV {
	return MV{int32(rng.Intn(8*r+1) - 4*r), int32(rng.Intn(8*r+1) - 4*r)}
}

// checkPredictions compares the luma and/or chroma prediction entry
// points against their clamped oracles for one block and vector.
func checkPredictions(t *testing.T, ref Plane, bx, by int, mv MV, bw, bh int, sc *Scratch, luma, chroma bool) {
	t.Helper()
	got := make([]uint8, bw*bh)
	want := make([]uint8, bw*bh)
	type check struct {
		name      string
		prod, ref func(dst []uint8)
	}
	var cases []check
	if luma {
		cases = append(cases, []check{
			{"PredictLuma",
				func(d []uint8) { PredictLuma(d, ref, bx, by, mv, bw, bh) },
				func(d []uint8) { predictLumaRef(d, ref, bx, by, mv, bw, bh) }},
			{"PredictLumaSharp",
				func(d []uint8) { PredictLumaSharp(d, ref, bx, by, mv, bw, bh, sc) },
				func(d []uint8) { predictLumaSharpRef(d, ref, bx, by, mv, bw, bh) }},
		}...)
	}
	if chroma {
		cases = append(cases, check{"PredictChroma",
			func(d []uint8) { PredictChroma(d, ref, bx, by, mv, bw, bh) },
			func(d []uint8) { predictChromaRef(d, ref, bx, by, mv, bw, bh) }})
	}
	for _, c := range cases {
		c.prod(got)
		c.ref(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %dx%d plane (%d,%d) mv=%v %dx%d [%d]: got %d want %d",
					c.name, ref.W, ref.H, bx, by, mv, bw, bh, i, got[i], want[i])
			}
		}
	}
}

func TestPredictMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var sc Scratch
	for iter := 0; iter < 3000; iter++ {
		W := 18 + rng.Intn(40)
		H := 18 + rng.Intn(30)
		ref := randPlane(rng, W, H, iter%3)
		bw := []int{4, 8, 16}[rng.Intn(3)]
		bh := bw
		bx := edgePos(rng, W)
		by := edgePos(rng, H)
		checkPredictions(t, ref, bx, by, randMV(rng, 8), bw, bh, &sc, true, true)
	}
}

// edgeOrigins lists integer origins that matter for an n-sample axis
// and block size b: far outside, at and around the origin clamp's
// bounds (−(b+3) and n+2), straddling each edge, and just inside.
func edgeOrigins(n, b int) []int {
	return []int{-farReach, -(b + 5), -(b + 4), -(b + 3), -(b + 2), -b, -b + 1, -1, 0, 1,
		n - b - 1, n - b, n - b + 1, n - 1, n, n + 1, n + 2, n + 3, n + farReach}
}

// TestEdgeOriginsMatchRef sweeps block origins around every edge and
// corner, with every sub-pel phase, over planes whose border is
// exactly the derived minimum (block size + EdgeReach): the bordered
// kernels must equal the clamped oracles everywhere, and no read may
// leave the plane.
func TestEdgeOriginsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var sc Scratch
	for _, b := range []int{4, 8, 16} {
		W, H := 24+rng.Intn(9), 20+rng.Intn(9)
		ref := borderedPlane(W, H, b+EdgeReach, randPix(rng, W, H, 0))
		cur := randCur(rng, W, H, 0)
		scratch := make([]uint8, b*b)
		for _, oy := range edgeOrigins(H, b) {
			for _, ox := range edgeOrigins(W, b) {
				// Every eighth-pel phase for chroma; the luma paths
				// see the quarter-pel ones among them.
				for phase := int32(0); phase < 64; phase++ {
					mv := MV{X: phase & 7, Y: phase >> 3}
					luma := mv.X < 4 && mv.Y < 4
					checkPredictions(t, ref, ox, oy, mv, b, b, &sc, luma, true)
				}
				cx, cy := rng.Intn(W-b+1), rng.Intn(H-b+1)
				for phase := int32(0); phase < 16; phase++ {
					mv := MV{X: int32(ox-cx)*4 + phase&3, Y: int32(oy-cy)*4 + phase>>2}
					want := sadSubpelRef(cur, cx, cy, ref, mv, b, b, scratch)
					if got, _ := sadSubpelThresh(cur, cx, cy, ref, mv, b, b, 1<<40); got != want {
						t.Fatalf("sadSubpelThresh %dx%d (%d,%d) mv=%v: got %d want %d", b, b, cx, cy, mv, got, want)
					}
				}
			}
		}
	}
}

func TestSadSubpelMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 3000; iter++ {
		W := 24 + rng.Intn(40)
		H := 24 + rng.Intn(30)
		cur := randCur(rng, W, H, iter%3)
		ref := randPlane(rng, W, H, (iter+2)%3)
		bw, bh := 16, 16
		cx := rng.Intn(W - bw + 1)
		cy := rng.Intn(H - bh + 1)
		// Vectors reach from the block to farReach past every edge.
		mv := MV{X: int32(edgePos(rng, W)-cx)*4 + int32(rng.Intn(4)), Y: int32(edgePos(rng, H)-cy)*4 + int32(rng.Intn(4))}

		want := sadSubpelRef(cur, cx, cy, ref, mv, bw, bh, make([]uint8, bw*bh))
		if got, _ := sadSubpelThresh(cur, cx, cy, ref, mv, bw, bh, math.MaxInt64); got != want {
			t.Fatalf("sadSubpel (%d,%d) mv=%v: got %d want %d", cx, cy, mv, got, want)
		}
		for _, th := range []int64{1, want / 2, want, want + 1} {
			got, early := sadSubpelThresh(cur, cx, cy, ref, mv, bw, bh, th)
			if !early && got != want {
				t.Fatalf("sadSubpelThresh(th=%d): complete scan %d want %d", th, got, want)
			}
			if early && (got < th || want < th) {
				t.Fatalf("sadSubpelThresh(th=%d): bad abort got %d exact %d", th, got, want)
			}
		}
	}
}

// searchRef reimplements the pre-kernel Search verbatim (full SAD on
// every candidate, no early termination) on top of the preserved
// scalar references. TestSearchMatchesRef proves the thresholded
// search follows the identical trajectory: same vector, same cost,
// same perf counter values.
func searchRef(cur Plane, bx, by int, ref Plane, pred MV, bw, bh int, p Params, sc *Scratch, c *perf.Counters) (MV, int64) {
	blockOps := int64(bw * bh)
	evals := 0
	cost := func(mx, my int) int64 {
		evals++
		sad := sadRef(cur, bx, by, ref, bx+mx, by+my, bw, bh)
		mv := MV{int32(mx) * 4, int32(my) * 4}
		return sad + p.Lambda*mvdBits(mv, pred)/16
	}
	startX := clampInt(int(pred.X)/4, -p.Range, p.Range)
	startY := clampInt(int(pred.Y)/4, -p.Range, p.Range)
	bestX, bestY := 0, 0
	bestCost := cost(0, 0)
	if startX != 0 || startY != 0 {
		if cc := cost(startX, startY); cc < bestCost {
			bestCost, bestX, bestY = cc, startX, startY
		}
	}
	patterns := func(coarse, fine [][2]int) {
		for iter := 0; iter < 4*p.Range+16; iter++ {
			improved := false
			for _, d := range coarse {
				x, y := bestX+d[0], bestY+d[1]
				if x < -p.Range || x > p.Range || y < -p.Range || y > p.Range {
					continue
				}
				if cc := cost(x, y); cc < bestCost {
					bestCost, bestX, bestY = cc, x, y
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		for _, d := range fine {
			x, y := bestX+d[0], bestY+d[1]
			if x < -p.Range || x > p.Range || y < -p.Range || y > p.Range {
				continue
			}
			if cc := cost(x, y); cc < bestCost {
				bestCost, bestX, bestY = cc, x, y
			}
		}
	}
	switch p.Kind {
	case SearchFull:
		for my := -p.Range; my <= p.Range; my++ {
			for mx := -p.Range; mx <= p.Range; mx++ {
				if mx == 0 && my == 0 {
					continue
				}
				if cc := cost(mx, my); cc < bestCost {
					bestCost, bestX, bestY = cc, mx, my
				}
			}
		}
	case SearchDiamond:
		patterns(diamondLarge[:], diamondSmall[:])
	case SearchHex:
		patterns(hexPattern[:], diamondSmall[:])
	}
	c.Count(perf.KSAD, blockOps*int64(evals))
	c.DataDepBranches += int64(evals)

	best := MV{int32(bestX) * 4, int32(bestY) * 4}
	if p.SubPel == 0 {
		return best, bestCost
	}
	scratch := make([]uint8, bw*bh)
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
				cc := sadSubpelRef(cur, bx, by, ref, cand, bw, bh, scratch) + p.Lambda*mvdBits(cand, pred)/16
				if cc < bestCost {
					bestCost = cc
					best = cand
					improved = true
				}
			}
		}
	}
	c.Count(perf.KInterp, blockOps*int64(subEvals)*4)
	c.Count(perf.KSAD, blockOps*int64(subEvals))
	c.DataDepBranches += int64(subEvals)
	return best, bestCost
}

func TestSearchMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	kinds := []SearchKind{SearchDiamond, SearchHex, SearchFull}
	for iter := 0; iter < 300; iter++ {
		W := 40 + rng.Intn(40)
		H := 40 + rng.Intn(24)
		cur := randCur(rng, W, H, iter%3)
		ref := randPlane(rng, W, H, (iter+1)%3)
		bw, bh := 16, 16
		bx := rng.Intn(W - bw + 1)
		by := rng.Intn(H - bh + 1)
		pred := randMV(rng, 4)
		p := Params{
			Kind:   kinds[iter%len(kinds)],
			Range:  4 + rng.Intn(12),
			SubPel: iter % 3,
			Lambda: int64(rng.Intn(200)),
		}
		if p.Kind == SearchFull {
			p.Range = 4 // keep the exhaustive case fast
		}

		var cGot, cWant perf.Counters
		var scGot, scWant Scratch
		gotMV, gotCost := Search(cur, bx, by, ref, pred, bw, bh, p, &scGot, &cGot)
		wantMV, wantCost := searchRef(cur, bx, by, ref, pred, bw, bh, p, &scWant, &cWant)
		if gotMV != wantMV || gotCost != wantCost {
			t.Fatalf("Search %v range=%d subpel=%d λ=%d at (%d,%d): got %v/%d want %v/%d",
				p.Kind, p.Range, p.SubPel, p.Lambda, bx, by, gotMV, gotCost, wantMV, wantCost)
		}
		if cGot != cWant {
			t.Fatalf("Search counters diverged: got %+v want %+v", cGot, cWant)
		}
	}
}

func TestPredSADThreshMatchesPredSAD(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for iter := 0; iter < 1000; iter++ {
		W, H := 48, 48
		cur := randCur(rng, W, H, iter%3)
		ref := randPlane(rng, W, H, (iter+1)%3)
		bx := rng.Intn(W - 16 + 1)
		by := rng.Intn(H - 16 + 1)
		mv := randMV(rng, 6)

		var c1, c2 perf.Counters
		exact := PredSAD(cur, bx, by, ref, mv, 16, 16, &c1)
		for _, th := range []int64{1, exact, exact + 1, 1 << 40} {
			var c perf.Counters
			got, early := PredSADThresh(cur, bx, by, ref, mv, 16, 16, th, &c)
			if !early && got != exact {
				t.Fatalf("PredSADThresh(th=%d): %d want %d", th, got, exact)
			}
			if early && (got < th || exact < th) {
				t.Fatalf("PredSADThresh(th=%d): bad abort %d exact %d", th, got, exact)
			}
			c2 = c
			if c1 != c2 {
				t.Fatalf("PredSADThresh counters %+v differ from PredSAD %+v", c2, c1)
			}
		}
	}
}
