package motion

import (
	"math"
	"math/rand"
	"testing"

	"vbench/internal/perf"
)

var sinkSAD int64

// BenchmarkMotionComp times one 16×16 luma prediction (bilinear and
// 4-tap), one 8×8 chroma prediction and one thresholded predicted SAD
// at an edge origin — the window straddles the top-left corner of the
// picture — and at an interior origin with the same sub-pel phase.
// Bordered references make the two cost the same: the ratio of the
// at=edge to the at=interior time is the figure to watch (about 1;
// a per-sample clamped edge path shows up as a ratio well above it).
func BenchmarkMotionComp(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	luma := randPlane(rng, 64, 48, 0)
	chroma := borderedPlane(32, 24, 8+EdgeReach, randPix(rng, 32, 24, 0))
	cur := randCur(rng, 64, 48, 0)
	var sc Scratch
	dst := make([]uint8, 16*16)
	// Quarter-pel (−5.5, −3.25) puts a block at (0, 0) across the
	// corner; eighth-pel (−5.625, −3.375) does the same in chroma.
	lumaMV := MV{X: -22, Y: -13}
	chromaMV := MV{X: -45, Y: -27}
	origins := []struct {
		at     string
		bx, by int
	}{{"edge", 0, 0}, {"interior", 24, 16}}
	ops := []struct {
		name string
		run  func(bx, by int)
	}{
		{"PredictLuma", func(bx, by int) { PredictLuma(dst, luma, bx, by, lumaMV, 16, 16) }},
		{"PredictLumaSharp", func(bx, by int) { PredictLumaSharp(dst, luma, bx, by, lumaMV, 16, 16, &sc) }},
		{"PredictChroma", func(bx, by int) { PredictChroma(dst, chroma, bx/2, by/2, chromaMV, 8, 8) }},
		{"PredSADThresh", func(bx, by int) {
			var c perf.Counters
			sinkSAD, _ = PredSADThresh(cur, 24, 16, luma, MV{X: int32(bx-24)*4 + lumaMV.X, Y: int32(by-16)*4 + lumaMV.Y}, 16, 16, math.MaxInt64, &c)
		}},
	}
	for _, op := range ops {
		for _, o := range origins {
			b.Run("op="+op.name+"/at="+o.at, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.run(o.bx, o.by)
				}
			})
		}
	}
}
