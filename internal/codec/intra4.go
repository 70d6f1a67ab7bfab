package codec

import (
	"fmt"

	"vbench/internal/codec/motion"
	"vbench/internal/codec/predict"
)

// Per-4×4-block intra prediction (the Intra4x4 tool). Blocks inside a
// macroblock are predicted in raster order from already-reconstructed
// neighbours — earlier blocks of the same macroblock, or the frame
// reconstruction for blocks on the macroblock's top/left edge. The
// functions here are normative: encoder build and decoder reconstruct
// call the same code, keeping the closed loop bit-exact.

// intra4Sample fetches the reconstructed sample at macroblock-local
// coordinates (lx, ly) (which may be -1 for neighbour rows/columns):
// from the in-progress candidate when inside the macroblock, from the
// frame reconstruction otherwise. The caller must have verified
// availability.
func intra4Sample(plane motion.Plane, cand *mbCand, px, py, lx, ly int) uint8 {
	if lx >= 0 && lx < MBSize && ly >= 0 && ly < MBSize {
		return cand.lumaRecon[ly*MBSize+lx]
	}
	return plane.Pix[plane.Off(px+lx, py+ly)]
}

// intra4Avail reports whether the given prediction mode has its
// source neighbours for the 4×4 block at offset (ox, oy) of the
// macroblock at (px, py). sliceTop is the luma row of the slice's
// first sample: prediction must not cross it.
func intra4Avail(mode predict.Mode, px, py, ox, oy, sliceTop int) bool {
	hasTop := py+oy > sliceTop
	hasLeft := px+ox > 0
	switch mode {
	case predict.ModeDC:
		return true
	case predict.ModeVertical:
		return hasTop
	case predict.ModeHorizontal:
		return hasLeft
	}
	return false
}

// intra4PredictBlock writes the 4×4 prediction for the block at
// (ox, oy) of the macroblock at (px, py) into dst.
func intra4PredictBlock(dst []uint8, mode predict.Mode, plane motion.Plane, cand *mbCand, px, py, ox, oy, sliceTop int) error {
	hasTop := py+oy > sliceTop
	hasLeft := px+ox > 0
	var top, left [4]uint8
	if hasTop {
		for i := 0; i < 4; i++ {
			top[i] = intra4Sample(plane, cand, px, py, ox+i, oy-1)
		}
	}
	if hasLeft {
		for i := 0; i < 4; i++ {
			left[i] = intra4Sample(plane, cand, px, py, ox-1, oy+i)
		}
	}
	switch mode {
	case predict.ModeDC:
		sum, n := 0, 0
		if hasTop {
			for _, v := range top {
				sum += int(v)
			}
			n += 4
		}
		if hasLeft {
			for _, v := range left {
				sum += int(v)
			}
			n += 4
		}
		dc := uint8(128)
		if n > 0 {
			dc = uint8((sum + n/2) / n)
		}
		for i := range dst[:16] {
			dst[i] = dc
		}
	case predict.ModeVertical:
		if !hasTop {
			return fmt.Errorf("codec: vertical intra4 without top neighbour at (%d,%d)", px+ox, py+oy)
		}
		for y := 0; y < 4; y++ {
			copy(dst[y*4:y*4+4], top[:])
		}
	case predict.ModeHorizontal:
		if !hasLeft {
			return fmt.Errorf("codec: horizontal intra4 without left neighbour at (%d,%d)", px+ox, py+oy)
		}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				dst[y*4+x] = left[y]
			}
		}
	default:
		return fmt.Errorf("codec: invalid intra4 mode %d", int(mode))
	}
	return nil
}
