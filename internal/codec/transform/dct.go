// Package transform implements the block transforms of the vbench
// codec: integer approximations of the 4×4 and 8×8 DCT-II with their
// inverses, the 4×4 Hadamard transform used for SATD cost estimation,
// zigzag scan orders, and scalar quantization with a configurable dead
// zone.
//
// The transforms are pure integer (fixed-point) so the encoder's
// reconstruction loop and the decoder produce bit-identical results on
// every platform. The basis matrices are hard-coded rather than
// computed with math.Cos to keep the bitstream definition independent
// of any floating-point library behaviour.
package transform

import "vbench/internal/codec/kern"

// Coefficients are carried in Q3 (value × 8) between the forward
// transform, quantization, and the inverse transform, which preserves
// three fractional bits of precision through the rate-distortion loop.
// The Q10 basis matrices that define the transforms, and the
// matrix-multiply references the butterfly kernels must match, live in
// ref_test.go.

// roundShift divides v by 2^shift, rounding half away from zero.
func roundShift(v int64, shift uint) int64 {
	if v >= 0 {
		return (v + 1<<(shift-1)) >> shift
	}
	return -((-v + 1<<(shift-1)) >> shift)
}

// Forward applies the N×N forward DCT to the residual block src
// (row-major, N=4 or 8) and writes Q3-scaled coefficients to dst.
// src and dst may alias.
//
// The work is done by the butterfly kernels in internal/codec/kern;
// the matrix-multiply forwardN in ref_test.go remains the normative
// reference, and TestKernMatchesReference locks the two together
// bit-for-bit.
func Forward(src, dst []int32, n int) {
	switch n {
	case 4:
		kern.FwdDCT4(src, dst)
	case 8:
		kern.FwdDCT8(src, dst)
	default:
		panic("transform: unsupported block size")
	}
}

// Inverse applies the N×N inverse DCT to Q3-scaled coefficients in src
// and writes the reconstructed residual to dst. src and dst may alias.
func Inverse(src, dst []int32, n int) {
	switch n {
	case 4:
		kern.InvDCT4(src, dst)
	case 8:
		kern.InvDCT8(src, dst)
	default:
		panic("transform: unsupported block size")
	}
}

// SATD4 returns the sum of absolute transformed differences of a 4×4
// residual block using the Hadamard transform — the encoder's cheap
// frequency-domain cost metric for mode decisions. The unrolled
// kernel satisfies the same definition as the loop-form satd4Ref in
// ref_test.go.
func SATD4(res []int32) int64 {
	if len(res) < 16 {
		panic("transform: SATD4 needs 16 samples")
	}
	return kern.SATD4(res)
}

// SATD computes the SATD of an arbitrary residual region of width w
// and height h (both multiples of 4) stored row-major with stride w.
func SATD(res []int32, w, h int) int64 {
	return kern.SATD(res, w, h)
}
