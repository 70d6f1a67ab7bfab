package transform

// Scalar quantization with a dead zone. QP follows the H.264
// convention: the quantizer step size doubles every 6 QP, spanning
// near-lossless (QP 0, step 0.625) to extremely coarse (QP 51,
// step ≈228).

// MinQP and MaxQP bound the valid quantizer range.
const (
	MinQP = 0
	MaxQP = 51
)

// qstepBaseQ6 holds the quantizer step for QP 0..5 in Q6 fixed point
// (×64); steps for higher QP are obtained by left-shifting by QP/6.
var qstepBaseQ6 = [6]int32{40, 45, 50, 57, 63, 71}

// QStepQ6 returns the quantizer step size for qp in Q6 fixed point.
func QStepQ6(qp int) int32 {
	if qp < MinQP || qp > MaxQP {
		panic("transform: QP out of range")
	}
	return qstepBaseQ6[qp%6] << uint(qp/6)
}

// QStep returns the quantizer step size as a float, for rate models.
func QStep(qp int) float64 { return float64(QStepQ6(qp)) / 64 }

// DeadZone selects the rounding offset used during quantization,
// expressed as a fraction of the step size in 1/64ths. Intra blocks
// round more aggressively toward nonzero (the H.264 convention is 1/3
// for intra, 1/6 for inter).
type DeadZone int32

// Standard dead zones.
const (
	DeadZoneIntra DeadZone = 21 // ≈ 1/3 in Q6
	DeadZoneInter DeadZone = 11 // ≈ 1/6 in Q6
)

// Dequantize maps levels back to Q3 coefficients:
// c = round(level · qstep / 8). Both the encoder's reconstruction
// loop and the decoder use this exact function, so reconstruction is
// bit-identical.
func Dequantize(levels []int32, coeffs []int32, qp int) {
	step := int64(QStepQ6(qp))
	for i, l := range levels {
		coeffs[i] = int32(roundShift(int64(l)*step, 3)) // Q6 → Q3
	}
}

// ZigZag4 is the H.264 4×4 zigzag scan order (raster indices).
var ZigZag4 = [16]int{0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15}

// ZigZag8 is the JPEG/H.264 8×8 zigzag scan order (raster indices).
var ZigZag8 = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// Scan reorders a raster block into zigzag order. n is 4 or 8.
func Scan(block, scanned []int32, n int) {
	switch n {
	case 4:
		for i, idx := range ZigZag4 {
			scanned[i] = block[idx]
		}
	case 8:
		for i, idx := range ZigZag8 {
			scanned[i] = block[idx]
		}
	default:
		panic("transform: unsupported scan size")
	}
}

// Unscan reorders a zigzag sequence back into raster order.
func Unscan(scanned, block []int32, n int) {
	switch n {
	case 4:
		for i, idx := range ZigZag4 {
			block[idx] = scanned[i]
		}
	case 8:
		for i, idx := range ZigZag8 {
			block[idx] = scanned[i]
		}
	default:
		panic("transform: unsupported scan size")
	}
}
