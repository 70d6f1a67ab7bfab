package kern

import "sync/atomic"

// Reciprocal-table quantization. The scalar definition (the Quantize
// oracle in internal/codec/transform's tests) divides every
// coefficient by the quantizer step; this kernel replaces the divide
// with a multiply by a precomputed per-QP magic reciprocal:
//
//	floor(u/step) == (u·magic) >> quantShift, magic = floor(2⁴¹/step)+1
//
// The identity is exact (Granlund–Montgomery round-up method) for all
// u with u·(magic·step − 2⁴¹) < 2⁴¹. Since magic·step − 2⁴¹ ≤ step ≤
// 14592 (QP 51) the identity holds for every u < quantMaxU = 2²⁶ —
// far above any reachable value: Q3 DCT coefficients are bounded by
// ~2¹⁴ in magnitude, so u = 8·|c| + deadzone ≤ ~2¹⁷ on well-formed
// input. Larger magnitudes (only constructible by corrupting
// intermediate state) take the exact scalar-divide fallback, counted
// in quantDivFallbacks for the telemetry debug endpoint.
const (
	quantShift = 41
	quantMaxU  = 1 << 26
)

type quantTab struct {
	step  int64
	magic uint64
}

// quantTabs is indexed by QP. The step table mirrors
// transform.QStepQ6 (Q6 base steps {40,45,50,57,63,71}, doubling every
// 6 QP); the transform-package cross-check test locks the two
// definitions together.
var quantTabs = func() [52]quantTab {
	base := [6]int64{40, 45, 50, 57, 63, 71}
	var t [52]quantTab
	for qp := range t {
		step := base[qp%6] << uint(qp/6)
		t[qp] = quantTab{step: step, magic: uint64(1)<<quantShift/uint64(step) + 1}
	}
	return t
}()

var quantDivFallbacks atomic.Int64

// QuantDivFallbacks reports how many coefficients exceeded the magic
// reciprocal's exactness range and were quantized with a scalar
// divide instead. Zero in any well-formed encode.
func QuantDivFallbacks() int64 { return quantDivFallbacks.Load() }

// QuantScan fuses quantization with the zigzag scan: Q3 coefficients
// (raster order) are quantized with the QP's reciprocal table and
// written to zz in scan order (levels[i] for raster index scan[i]).
// dz is the deadzone rounding offset in 1/64ths of the step. Returns
// whether any level is nonzero. Results are bit-identical to the
// divide-based quantizer followed by transform.Scan.
//
//vbench:noalloc
func QuantScan(coeffs, zz []int32, scan []int, qp int, dz int64) bool {
	t := &quantTabs[qp]
	offset := uint64(t.step * dz / 64)
	magic := t.magic
	var nzAcc int32
	for i, idx := range scan {
		v := int64(coeffs[idx]) * 8 // Q3 → Q6
		neg := v < 0
		if neg {
			v = -v
		}
		u := uint64(v) + offset
		var l int64
		if u < quantMaxU {
			l = int64(u * magic >> quantShift)
		} else {
			l = int64(u / uint64(t.step))
			quantDivFallbacks.Add(1)
		}
		if neg {
			l = -l
		}
		zz[i] = int32(l)
		nzAcc |= int32(l)
	}
	return nzAcc != 0
}
