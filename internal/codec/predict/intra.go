// Package predict implements intra prediction for the vbench codec:
// DC, horizontal, vertical, and plane prediction of 16×16 luma
// macroblocks from reconstructed neighbours, and DC/H/V prediction of
// 8×8 chroma blocks. The functions are normative: encoder and decoder
// share them, so intra reconstruction is bit-identical.
package predict

import (
	"fmt"

	"vbench/internal/codec/motion"
)

// Mode identifies an intra prediction mode.
type Mode int

// Intra prediction modes. Plane is only valid for 16×16 luma.
const (
	ModeDC Mode = iota
	ModeVertical
	ModeHorizontal
	ModePlane
	NumModes
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeDC:
		return "dc"
	case ModeVertical:
		return "v"
	case ModeHorizontal:
		return "h"
	case ModePlane:
		return "plane"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Available reports whether mode m can be used for the block at
// (bx, by): directional and plane modes need their source neighbours
// to exist inside the frame.
func Available(m Mode, bx, by, size int, plane motion.Plane) bool {
	hasTop := by > 0
	hasLeft := bx > 0
	switch m {
	case ModeDC:
		return true
	case ModeVertical:
		return hasTop
	case ModeHorizontal:
		return hasLeft
	case ModePlane:
		return hasTop && hasLeft && bx+size <= plane.W && by+size <= plane.H
	}
	return false
}

// Predict writes the size×size intra prediction for the block at
// (bx, by) of the reconstructed plane into dst (stride size). The
// plane is addressed through its stride, so bordered reconstructions
// work as they are. The
// caller must have checked Available.
func Predict(dst []uint8, plane motion.Plane, bx, by, size int, m Mode) {
	PredictClipped(dst, plane, bx, by, size, m, by > 0, bx > 0)
}

// PredictClipped is Predict with explicit neighbour availability:
// slice-coded streams must not predict across the slice boundary even
// when the samples physically exist, so the caller states which
// neighbours are legal. Directional and plane modes require their
// neighbours; DC degrades gracefully.
func PredictClipped(dst []uint8, plane motion.Plane, bx, by, size int, m Mode, hasTop, hasLeft bool) {
	switch m {
	case ModeDC:
		predictDC(dst, plane, bx, by, size, hasTop, hasLeft)
	case ModeVertical:
		for x := 0; x < size; x++ {
			v := plane.Pix[plane.Off(bx+x, by-1)]
			for y := 0; y < size; y++ {
				dst[y*size+x] = v
			}
		}
	case ModeHorizontal:
		for y := 0; y < size; y++ {
			v := plane.Pix[plane.Off(bx-1, by+y)]
			row := dst[y*size : (y+1)*size]
			for x := range row {
				row[x] = v
			}
		}
	case ModePlane:
		predictPlane(dst, plane, bx, by, size)
	default:
		panic(fmt.Sprintf("predict: invalid mode %d", int(m)))
	}
}

func predictDC(dst []uint8, plane motion.Plane, bx, by, size int, hasTop, hasLeft bool) {
	sum := 0
	n := 0
	if hasTop && by > 0 {
		row := plane.Pix[plane.Off(bx, by-1):][:size]
		for _, v := range row {
			sum += int(v)
		}
		n += size
	}
	if hasLeft && bx > 0 {
		for y := 0; y < size; y++ {
			sum += int(plane.Pix[plane.Off(bx-1, by+y)])
		}
		n += size
	}
	dc := uint8(128)
	if n > 0 {
		dc = uint8((sum + n/2) / n)
	}
	for i := range dst[:size*size] {
		dst[i] = dc
	}
}

// predictPlane is the H.264-style plane (gradient) predictor
// generalized to size 8 or 16.
func predictPlane(dst []uint8, plane motion.Plane, bx, by, size int) {
	half := size / 2
	at := func(x, y int) int { return int(plane.Pix[plane.Off(x, y)]) }
	var hAcc, vAcc int
	for i := 1; i <= half; i++ {
		hAcc += i * (at(bx+half-1+i, by-1) - at(bx+half-1-i, by-1))
		vAcc += i * (at(bx-1, by+half-1+i) - at(bx-1, by+half-1-i))
	}
	var b, c int
	if size == 16 {
		b = (5*hAcc + 32) >> 6
		c = (5*vAcc + 32) >> 6
	} else {
		b = (17*hAcc + 16) >> 5
		c = (17*vAcc + 16) >> 5
	}
	a := 16 * (at(bx-1, by+size-1) + at(bx+size-1, by-1))
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			v := (a + b*(x-half+1) + c*(y-half+1) + 16) >> 5
			dst[y*size+x] = clip255(v)
		}
	}
}

func clip255(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
