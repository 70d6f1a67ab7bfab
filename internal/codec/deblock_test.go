package codec

import (
	"testing"

	"vbench/internal/codec/motion"
	"vbench/internal/perf"
	"vbench/internal/video"
)

func TestDeblockThresholdsGrowWithQP(t *testing.T) {
	prevA := 0
	for qp := 0; qp <= 51; qp++ {
		a, b, tc := deblockThresholds(qp)
		if a < prevA {
			t.Fatalf("alpha fell at qp %d", qp)
		}
		if b < 1 || tc < 1 {
			t.Fatalf("qp %d: beta %d tc %d", qp, b, tc)
		}
		prevA = a
	}
	aLo, _, _ := deblockThresholds(5)
	aHi, _, _ := deblockThresholds(45)
	if aHi <= aLo {
		t.Error("alpha not increasing over the QP range")
	}
}

// lumaStepFrame returns a bordered 32×32 reconstruction whose luma
// steps from lo to hi at column 8, and its luma plane.
func lumaStepFrame(lo, hi uint8) (*video.Frame, motion.Plane) {
	g := video.NewFrame(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			v := lo
			if x >= 8 {
				v = hi
			}
			g.Y[y*32+x] = v
		}
	}
	f := toRecon(g)
	return f, reconPlane(f, video.PlaneY)
}

func TestDeblockSmoothsBlockEdge(t *testing.T) {
	// A small step at an 8-pixel boundary (a coding artifact) must be
	// reduced.
	f, y := lumaStepFrame(100, 108)
	qpGrid := []int{35, 35, 35, 35}
	var c perf.Counters
	deblockFrame(f, qpGrid, 2, 2, &c)
	stepBefore := 8
	stepAfter := int(y.Pix[y.Off(8, 16)]) - int(y.Pix[y.Off(7, 16)])
	if stepAfter >= stepBefore {
		t.Errorf("edge step not reduced: %d -> %d", stepBefore, stepAfter)
	}
	if c.Ops[perf.KDeblock] == 0 {
		t.Error("deblock recorded no work")
	}
}

func TestDeblockPreservesRealEdges(t *testing.T) {
	// A large step (a real edge) must pass through untouched.
	f, y := lumaStepFrame(40, 200)
	qpGrid := []int{30, 30, 30, 30}
	var c perf.Counters
	deblockFrame(f, qpGrid, 2, 2, &c)
	if p0, q0 := y.Pix[y.Off(7, 16)], y.Pix[y.Off(8, 16)]; p0 != 40 || q0 != 200 {
		t.Errorf("real edge modified: %d | %d", p0, q0)
	}
}

func TestDeblockFlatRegionUnchanged(t *testing.T) {
	flat := video.NewFrame(32, 32)
	for i := range flat.Y {
		flat.Y[i] = 128
	}
	f := toRecon(flat)
	qpGrid := []int{40, 40, 40, 40}
	var c perf.Counters
	deblockFrame(f, qpGrid, 2, 2, &c)
	// Every sample of the bordered picture, border included, stays.
	for i, v := range f.Y {
		if v != 128 {
			t.Fatalf("flat sample %d changed to %d", i, v)
		}
	}
}

func TestDeblockDeterministic(t *testing.T) {
	mk := func() *video.Frame {
		p := video.ContentParams{Seed: 3, Detail: 0.7, ChromaVariety: 0.5}
		seq, err := video.Generate(p, 64, 64, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		return toRecon(seq.Frames[0])
	}
	a, b := mk(), mk()
	grid := make([]int, 16)
	for i := range grid {
		grid[i] = 28 + i
	}
	var c perf.Counters
	deblockFrame(a, grid, 4, 4, &c)
	deblockFrame(b, grid, 4, 4, &c)
	if !a.Equal(b) {
		t.Error("deblock not deterministic")
	}
}
