package codec

import (
	"testing"
	"testing/quick"

	"vbench/internal/codec/motion"
	"vbench/internal/codec/predict"
	"vbench/internal/rng"
	"vbench/internal/video"
)

func TestSeqHeaderMarshalParseRoundTrip(t *testing.T) {
	f := func(w16, h16 uint8, fps uint16, frames uint16, flags uint8, refs, slices uint8) bool {
		h := &seqHeader{
			width:         (int(w16)%255 + 1) * 2,
			height:        (int(h16)%255 + 1) * 2,
			fpsMilli:      uint32(fps) + 1,
			frames:        int(frames),
			entropy:       EntropyKind(flags & 1),
			tx8Allowed:    flags&2 != 0,
			deblock:       flags&4 != 0,
			adaptiveQuant: flags&8 != 0,
			richContexts:  flags&16 != 0,
			sharpInterp:   flags&32 != 0,
			intra4Allowed: flags&64 != 0,
			refs:          int(refs)%8 + 1,
			slices:        int(slices)%4 + 1,
		}
		// slices must not exceed MB rows.
		if h.slices > h.paddedHeight()/MBSize {
			h.slices = h.paddedHeight() / MBSize
		}
		data := h.marshal()
		back, n, err := parseSeqHeader(data)
		if err != nil || n != len(data) {
			return false
		}
		return *back == *h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCeilMB(t *testing.T) {
	cases := map[int]int{1: 16, 16: 16, 17: 32, 32: 32, 33: 48}
	for in, want := range cases {
		if got := ceilMB(in); got != want {
			t.Errorf("ceilMB(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSliceBoundsPartition(t *testing.T) {
	for rows := 1; rows <= 40; rows++ {
		for k := 1; k <= rows && k <= 8; k++ {
			b := sliceBounds(rows, k)
			if b[0] != 0 || b[len(b)-1] != rows {
				t.Fatalf("rows=%d k=%d: bounds %v do not span", rows, k, b)
			}
			for i := 1; i < len(b); i++ {
				if b[i] <= b[i-1] {
					t.Fatalf("rows=%d k=%d: empty slice in %v", rows, k, b)
				}
			}
		}
	}
}

func TestPadAndCropInverse(t *testing.T) {
	p := video.ContentParams{Seed: 3, Detail: 0.6, Motion: 0.2, ChromaVariety: 0.4}
	seq, err := video.Generate(p, 52, 38, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	f := seq.Frames[0]
	padded := padFrame(f)
	if padded.Width != 64 || padded.Height != 48 {
		t.Fatalf("padded dims %dx%d", padded.Width, padded.Height)
	}
	// Padding must replicate edges.
	for y := 38; y < 48; y++ {
		if padded.Y[y*64+10] != f.Y[37*52+10] {
			t.Fatal("bottom padding not edge-replicated")
		}
	}
	back := cropFrame(toRecon(padded), 52, 38)
	if !back.Equal(f) {
		t.Error("crop(pad(f)) != f")
	}
	// Aligned sources pass through padFrame unchanged (same pointer);
	// cropFrame always copies a reconstruction's interior out, so an
	// output frame never aliases a pooled reference.
	g := video.NewFrame(64, 48)
	if padFrame(g) != g {
		t.Error("aligned source frames should not be copied")
	}
	r := toRecon(g)
	out := cropFrame(r, 64, 48)
	if !out.Equal(g) {
		t.Error("crop of an aligned reconstruction != its interior")
	}
	if &out.Y[0] == &r.Y[0] || &out.Cb[0] == &r.Cb[0] || &out.Cr[0] == &r.Cr[0] {
		t.Error("cropFrame output aliases the reconstruction")
	}
}

// toRecon returns a bordered reconstruction (getRecon layout) whose
// interior is f and whose border replicates f's edges.
func toRecon(f *video.Frame) *video.Frame {
	r := getRecon(f.Width, f.Height)
	for _, p := range allPlanes {
		dst := reconPlane(r, p)
		src, w, h := f.PlaneData(p)
		for y := 0; y < h; y++ {
			copy(dst.Pix[dst.Off(0, y):][:w], src[y*w:])
		}
	}
	extendBorders(r)
	return r
}

// TestReconBorderReplicatesEdges checks the bordered layout: the
// border of every plane repeats the nearest interior sample, the
// chroma border is half the luma one, and the interior is untouched.
func TestReconBorderReplicatesEdges(t *testing.T) {
	p := video.ContentParams{Seed: 5, Detail: 0.8, ChromaVariety: 0.6}
	seq, err := video.Generate(p, 48, 32, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	f := seq.Frames[0]
	r := toRecon(f)
	if r.Width != 48+2*RefPad || r.Height != 32+2*RefPad {
		t.Fatalf("bordered picture is %dx%d", r.Width, r.Height)
	}
	for _, id := range allPlanes {
		pl := reconPlane(r, id)
		want := RefPad
		if id != video.PlaneY {
			want = RefPad / 2
		}
		if pl.Border != want {
			t.Fatalf("%v border %d, want %d", id, pl.Border, want)
		}
		src, w, h := f.PlaneData(id)
		for y := -pl.Border; y < h+pl.Border; y++ {
			for x := -pl.Border; x < w+pl.Border; x++ {
				cx, cy := min(max(x, 0), w-1), min(max(y, 0), h-1)
				if got, want := pl.Pix[pl.Off(x, y)], src[cy*w+cx]; got != want {
					t.Fatalf("%v (%d,%d): %d, want %d", id, x, y, got, want)
				}
			}
		}
	}
}

func TestMBGridPredMV(t *testing.T) {
	g := newMBGrid(4, 4)
	// No neighbours: zero predictor.
	if mv := g.predMV(0, 0); mv != (motion.MV{}) {
		t.Errorf("corner predictor %v", mv)
	}
	// Set left, top, top-right.
	g.at(0, 1).mode = mbInter
	g.at(0, 1).mv = motion.MV{X: 4, Y: 8}
	g.at(1, 0).mode = mbInter
	g.at(1, 0).mv = motion.MV{X: 12, Y: 0}
	g.at(2, 0).mode = mbInter
	g.at(2, 0).mv = motion.MV{X: 8, Y: 4}
	want := motion.MV{X: 8, Y: 4} // component-wise median
	if mv := g.predMV(1, 1); mv != want {
		t.Errorf("predMV = %v, want %v", mv, want)
	}
	// Intra neighbours contribute zero vectors.
	g.at(1, 0).mode = mbIntra
	mv := g.predMV(1, 1)
	if mv != (motion.MV{X: 4, Y: 4}) {
		t.Errorf("predMV with intra top = %v", mv)
	}
}

func TestQuadBlocks4CoverAllBlocks(t *testing.T) {
	seen := map[int]bool{}
	for q := 0; q < 4; q++ {
		for _, b := range quadBlocks4[q] {
			if seen[b] {
				t.Fatalf("block %d in two quadrants", b)
			}
			seen[b] = true
			// The block's pixel offset must fall inside the quadrant.
			ox, oy := block4Offset(b)
			qx, qy := block8Offset(q)
			if ox < qx || ox >= qx+8 || oy < qy || oy >= qy+8 {
				t.Fatalf("block %d at (%d,%d) outside quadrant %d", b, ox, oy, q)
			}
		}
	}
	if len(seen) != 16 {
		t.Fatalf("quadrants cover %d blocks", len(seen))
	}
}

func TestIntra4AvailAndPredict(t *testing.T) {
	r := rng.New(1)
	plane := motion.NewPlane(make([]uint8, 64*64), 64, 64)
	for i := range plane.Pix {
		plane.Pix[i] = uint8(r.Intn(256))
	}
	cand := &mbCand{}
	// Frame corner block: only DC available.
	if intra4Avail(predict.ModeVertical, 0, 0, 0, 0, 0) || intra4Avail(predict.ModeHorizontal, 0, 0, 0, 0, 0) {
		t.Error("directional modes available at frame corner")
	}
	if !intra4Avail(predict.ModeDC, 0, 0, 0, 0, 0) {
		t.Error("DC unavailable")
	}
	// At a slice boundary, vertical is blocked even mid-frame.
	if intra4Avail(predict.ModeVertical, 16, 32, 4, 0, 32) {
		t.Error("vertical available across slice boundary")
	}
	if !intra4Avail(predict.ModeVertical, 16, 32, 4, 4, 32) {
		t.Error("vertical unavailable inside slice")
	}

	// Vertical prediction from inside the candidate: fill the first
	// block row of the cand and predict the block below it.
	for x := 0; x < 16; x++ {
		for y := 0; y < 4; y++ {
			cand.lumaRecon[y*16+x] = uint8(50 + x)
		}
	}
	var dst [16]uint8
	if err := intra4PredictBlock(dst[:], predict.ModeVertical, plane, cand, 16, 16, 0, 4, 0); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if dst[y*4+x] != uint8(50+x) {
				t.Fatalf("vertical intra4 (%d,%d) = %d, want %d", x, y, dst[y*4+x], 50+x)
			}
		}
	}
	// Invalid mode errors.
	if err := intra4PredictBlock(dst[:], predict.ModePlane, plane, cand, 16, 16, 4, 4, 0); err == nil {
		t.Error("plane mode accepted for intra4")
	}
}
