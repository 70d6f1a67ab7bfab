package predict

import (
	"testing"

	"vbench/internal/codec/motion"
	"vbench/internal/rng"
)

func testPlane(w, h int, seed uint64) motion.Plane {
	r := rng.New(seed)
	pix := make([]uint8, w*h)
	for i := range pix {
		pix[i] = uint8(r.Intn(256))
	}
	return motion.NewPlane(pix, w, h)
}

func TestAvailability(t *testing.T) {
	p := testPlane(64, 64, 1)
	cases := []struct {
		mode   Mode
		bx, by int
		want   bool
	}{
		{ModeDC, 0, 0, true},
		{ModeVertical, 16, 0, false},
		{ModeVertical, 16, 16, true},
		{ModeHorizontal, 0, 16, false},
		{ModeHorizontal, 16, 16, true},
		{ModePlane, 0, 16, false},
		{ModePlane, 16, 0, false},
		{ModePlane, 16, 16, true},
		{ModePlane, 48, 48, true},
	}
	for _, c := range cases {
		if got := Available(c.mode, c.bx, c.by, 16, p); got != c.want {
			t.Errorf("Available(%v, %d,%d) = %v, want %v", c.mode, c.bx, c.by, got, c.want)
		}
	}
}

func TestDCWithoutNeighborsIsMidGray(t *testing.T) {
	p := testPlane(32, 32, 2)
	dst := make([]uint8, 256)
	Predict(dst, p, 0, 0, 16, ModeDC)
	for i, v := range dst {
		if v != 128 {
			t.Fatalf("corner DC sample %d = %d, want 128", i, v)
		}
	}
}

func TestDCAveragesNeighbors(t *testing.T) {
	p := motion.NewPlane(make([]uint8, 64*64), 64, 64)
	for i := range p.Pix {
		p.Pix[i] = 100
	}
	dst := make([]uint8, 256)
	Predict(dst, p, 16, 16, 16, ModeDC)
	for _, v := range dst {
		if v != 100 {
			t.Fatalf("DC over flat 100 neighbours = %d", v)
		}
	}
}

func TestVerticalCopiesTopRow(t *testing.T) {
	p := testPlane(64, 64, 3)
	dst := make([]uint8, 256)
	Predict(dst, p, 16, 16, 16, ModeVertical)
	for x := 0; x < 16; x++ {
		top := p.Pix[15*64+16+x]
		for y := 0; y < 16; y++ {
			if dst[y*16+x] != top {
				t.Fatalf("vertical (%d,%d) = %d, want %d", x, y, dst[y*16+x], top)
			}
		}
	}
}

func TestHorizontalCopiesLeftColumn(t *testing.T) {
	p := testPlane(64, 64, 4)
	dst := make([]uint8, 256)
	Predict(dst, p, 16, 16, 16, ModeHorizontal)
	for y := 0; y < 16; y++ {
		left := p.Pix[(16+y)*64+15]
		for x := 0; x < 16; x++ {
			if dst[y*16+x] != left {
				t.Fatalf("horizontal (%d,%d) = %d, want %d", x, y, dst[y*16+x], left)
			}
		}
	}
}

func TestPlaneModeReproducesLinearRamp(t *testing.T) {
	// On a plane that is itself a linear ramp, the plane predictor
	// should reproduce it almost exactly.
	p := motion.NewPlane(make([]uint8, 64*64), 64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			p.Pix[y*64+x] = uint8(2*x + y)
		}
	}
	dst := make([]uint8, 256)
	Predict(dst, p, 16, 16, 16, ModePlane)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			want := int(2*(16+x) + 16 + y)
			got := int(dst[y*16+x])
			if got < want-3 || got > want+3 {
				t.Fatalf("plane (%d,%d) = %d, want ≈%d", x, y, got, want)
			}
		}
	}
}

func TestPlaneModeChromaSize(t *testing.T) {
	// Exercise the size-8 constants path.
	p := motion.NewPlane(make([]uint8, 32*32), 32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			p.Pix[y*32+x] = uint8(4 * x)
		}
	}
	dst := make([]uint8, 64)
	Predict(dst, p, 8, 8, 8, ModePlane)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			want := 4 * (8 + x)
			got := int(dst[y*8+x])
			if got < want-6 || got > want+6 {
				t.Fatalf("chroma plane (%d,%d) = %d, want ≈%d", x, y, got, want)
			}
		}
	}
}

func TestPredictPanicsOnInvalidMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid mode did not panic")
		}
	}()
	p := testPlane(32, 32, 5)
	Predict(make([]uint8, 256), p, 16, 16, 16, Mode(42))
}

func TestModeStrings(t *testing.T) {
	names := map[Mode]string{ModeDC: "dc", ModeVertical: "v", ModeHorizontal: "h", ModePlane: "plane"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

// TestPredictBorderedPlane checks that prediction addresses a plane
// through its stride and border: a bordered copy of a plane predicts
// exactly like the unbordered original, for every mode and position.
func TestPredictBorderedPlane(t *testing.T) {
	flat := testPlane(48, 32, 9)
	const b = 16
	bordered := motion.Plane{Pix: make([]uint8, (48+2*b)*(32+2*b)), W: 48, H: 32, Stride: 48 + 2*b, Border: b}
	for y := 0; y < 32; y++ {
		copy(bordered.Pix[bordered.Off(0, y):][:48], flat.Pix[y*48:])
	}
	bordered.ExtendBorder()
	for _, size := range []int{8, 16} {
		want := make([]uint8, size*size)
		got := make([]uint8, size*size)
		for by := 0; by+size <= 32; by += size {
			for bx := 0; bx+size <= 48; bx += size {
				for m := ModeDC; m < NumModes; m++ {
					if !Available(m, bx, by, size, flat) {
						continue
					}
					Predict(want, flat, bx, by, size, m)
					Predict(got, bordered, bx, by, size, m)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v size %d at (%d,%d) [%d]: bordered %d, flat %d", m, size, bx, by, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
