package motion

// The clamped scalar originals of every motion-compensation path,
// kept as the normative oracles for the bordered-plane kernels. They
// read only the W×H interior of a plane and replicate its edges per
// sample, so they define what a prediction from outside the picture
// means without relying on a border; the cross-check tests compare
// the production entry points, which read the border, against them.

// testBorder is the border the test reference planes carry: the
// minimum a 16×16 block needs (16 + EdgeReach), so a read one sample
// beyond what the derivation allows falls off the plane.
const testBorder = 16 + EdgeReach

// borderedPlane returns a w×h plane with a replicated border of b
// samples whose interior sample (x, y) is f(x, y).
func borderedPlane(w, h, b int, f func(x, y int) uint8) Plane {
	p := Plane{Pix: make([]uint8, (w+2*b)*(h+2*b)), W: w, H: h, Stride: w + 2*b, Border: b}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p.Pix[p.Off(x, y)] = f(x, y)
		}
	}
	p.ExtendBorder()
	return p
}

// unbordered returns a border-free copy of p's interior, the layout
// of a source plane.
func unbordered(p Plane) Plane {
	pix := make([]uint8, p.W*p.H)
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			pix[y*p.W+x] = p.at(x, y)
		}
	}
	return NewPlane(pix, p.W, p.H)
}

// at returns the interior sample (x, y).
func (p Plane) at(x, y int) uint8 { return p.Pix[p.Off(x, y)] }

// clampedSample returns the sample at (x, y) with edge replication,
// reading only the interior.
func (p Plane) clampedSample(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= p.W {
		x = p.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= p.H {
		y = p.H - 1
	}
	return p.at(x, y)
}

// sadRef is the all-scalar, edge-clamping SAD.
func sadRef(cur Plane, cx, cy int, ref Plane, rx, ry int, bw, bh int) int64 {
	var sum int64
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			d := int(cur.at(cx+x, cy+y)) - int(ref.clampedSample(rx+x, ry+y))
			if d < 0 {
				d = -d
			}
			sum += int64(d)
		}
	}
	return sum
}

// predictLumaRef is the clamped scalar PredictLuma.
func predictLumaRef(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int) {
	ix := bx + int(mv.X>>2)
	iy := by + int(mv.Y>>2)
	fx := int(mv.X & 3)
	fy := int(mv.Y & 3)
	if fx == 0 && fy == 0 {
		for y := 0; y < bh; y++ {
			for x := 0; x < bw; x++ {
				dst[y*bw+x] = ref.clampedSample(ix+x, iy+y)
			}
		}
		return
	}
	w00 := (4 - fx) * (4 - fy)
	w10 := fx * (4 - fy)
	w01 := (4 - fx) * fy
	w11 := fx * fy
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			a := int(ref.clampedSample(ix+x, iy+y))
			b := int(ref.clampedSample(ix+x+1, iy+y))
			c := int(ref.clampedSample(ix+x, iy+y+1))
			d := int(ref.clampedSample(ix+x+1, iy+y+1))
			dst[y*bw+x] = uint8((a*w00 + b*w10 + c*w01 + d*w11 + 8) >> 4)
		}
	}
}

// predictChromaRef is the clamped scalar PredictChroma.
func predictChromaRef(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int) {
	ix := bx + int(mv.X>>3)
	iy := by + int(mv.Y>>3)
	fx := int(mv.X & 7)
	fy := int(mv.Y & 7)
	if fx == 0 && fy == 0 {
		for y := 0; y < bh; y++ {
			for x := 0; x < bw; x++ {
				dst[y*bw+x] = ref.clampedSample(ix+x, iy+y)
			}
		}
		return
	}
	w00 := (8 - fx) * (8 - fy)
	w10 := fx * (8 - fy)
	w01 := (8 - fx) * fy
	w11 := fx * fy
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			a := int(ref.clampedSample(ix+x, iy+y))
			b := int(ref.clampedSample(ix+x+1, iy+y))
			c := int(ref.clampedSample(ix+x, iy+y+1))
			d := int(ref.clampedSample(ix+x+1, iy+y+1))
			dst[y*bw+x] = uint8((a*w00 + b*w10 + c*w01 + d*w11 + 32) >> 6)
		}
	}
}

// predictLumaSharpRef is the clamped scalar PredictLumaSharp: the
// separable 4-tap kernel, horizontal over bh+3 rows (Q6), then
// vertical (Q12 → samples).
func predictLumaSharpRef(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int) {
	ix := bx + int(mv.X>>2)
	iy := by + int(mv.Y>>2)
	fx := int(mv.X & 3)
	fy := int(mv.Y & 3)
	if fx == 0 && fy == 0 {
		for y := 0; y < bh; y++ {
			for x := 0; x < bw; x++ {
				dst[y*bw+x] = ref.clampedSample(ix+x, iy+y)
			}
		}
		return
	}
	wx := sharpTaps[fx]
	wy := sharpTaps[fy]
	tmpH := bh + 3
	tmp := make([]int32, bw*tmpH)
	for y := 0; y < tmpH; y++ {
		sy := iy + y - 1
		for x := 0; x < bw; x++ {
			var s int
			for i := 0; i < 4; i++ {
				s += int(wx[i]) * int(ref.clampedSample(ix+x-1+i, sy))
			}
			tmp[y*bw+x] = int32(s)
		}
	}
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			var s int32
			for j := 0; j < 4; j++ {
				s += wy[j] * tmp[(y+j)*bw+x]
			}
			v := (s + 2048) >> 12
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			dst[y*bw+x] = uint8(v)
		}
	}
}

// sadSubpelRef is the predict-then-difference scalar sub-pel SAD.
func sadSubpelRef(cur Plane, cx, cy int, ref Plane, mv MV, bw, bh int, scratch []uint8) int64 {
	predictLumaRef(scratch, ref, cx, cy, mv, bw, bh)
	var sum int64
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			d := int(cur.at(cx+x, cy+y)) - int(scratch[y*bw+x])
			if d < 0 {
				d = -d
			}
			sum += int64(d)
		}
	}
	return sum
}
