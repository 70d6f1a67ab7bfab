package transform

// The scalar definitions of the transform stage, kept as test oracles:
// the Q10 DCT basis matrices with their matrix-multiply forward and
// inverse transforms, the loop-form Hadamard SATD, and divide-based
// quantization. Production runs the butterfly, SATD and reciprocal
// quantization kernels of internal/codec/kern; kernref_test.go locks
// them to these definitions bit for bit.

// Basis matrices scaled by 1024 (Q10). Row k holds
// round(s(k)·cos((2n+1)kπ/2N)·1024) with s(0)=√(1/N), s(k)=√(2/N).
var dct4 = [4][4]int64{
	{512, 512, 512, 512},
	{669, 277, -277, -669},
	{512, -512, -512, 512},
	{277, -669, 669, -277},
}

var dct8 = [8][8]int64{
	{362, 362, 362, 362, 362, 362, 362, 362},
	{502, 426, 284, 100, -100, -284, -426, -502},
	{473, 196, -196, -473, -473, -196, 196, 473},
	{426, -100, -502, -284, 284, 502, 100, -426},
	{362, -362, -362, 362, 362, -362, -362, 362},
	{284, -502, 100, 426, -426, -100, 502, -284},
	{196, -473, 473, -196, -196, 473, -473, 196},
	{100, -284, 426, -502, 502, -426, 284, -100},
}

// fwdShift converts the Q10·Q10 = Q20 product down to Q3.
const fwdShift = 17

// invShift converts the Q3 · Q10 · Q10 = Q23 product back to Q0.
const invShift = 23

// forwardN computes dst = round((A · src · Aᵀ) >> fwdShift).
func forwardN(src, dst []int32, n int, a []int64) {
	var tmp [64]int64
	// tmp = A · src
	for k := 0; k < n; k++ {
		for col := 0; col < n; col++ {
			var s int64
			for j := 0; j < n; j++ {
				s += a[k*n+j] * int64(src[j*n+col])
			}
			tmp[k*n+col] = s
		}
	}
	// dst = tmp · Aᵀ
	for k := 0; k < n; k++ {
		for l := 0; l < n; l++ {
			var s int64
			for j := 0; j < n; j++ {
				s += tmp[k*n+j] * a[l*n+j]
			}
			dst[k*n+l] = int32(roundShift(s, fwdShift))
		}
	}
}

// inverseN computes dst = round((Aᵀ · src · A) >> invShift).
func inverseN(src, dst []int32, n int, a []int64) {
	var tmp [64]int64
	// tmp = Aᵀ · src
	for i := 0; i < n; i++ {
		for col := 0; col < n; col++ {
			var s int64
			for k := 0; k < n; k++ {
				s += a[k*n+i] * int64(src[k*n+col])
			}
			tmp[i*n+col] = s
		}
	}
	// dst = tmp · A
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s int64
			for l := 0; l < n; l++ {
				s += tmp[i*n+l] * a[l*n+j]
			}
			dst[i*n+j] = int32(roundShift(s, invShift))
		}
	}
}

var dct4Flat [16]int64
var dct8Flat [64]int64

func init() {
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			dct4Flat[i*4+j] = dct4[i][j]
		}
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			dct8Flat[i*8+j] = dct8[i][j]
		}
	}
}

// satd4Ref is the loop-form reference for SATD4.
func satd4Ref(res []int32) int64 {
	var m [16]int64
	// Horizontal butterflies.
	for i := 0; i < 4; i++ {
		r := res[i*4 : i*4+4]
		s0 := int64(r[0]) + int64(r[2])
		d0 := int64(r[0]) - int64(r[2])
		s1 := int64(r[1]) + int64(r[3])
		d1 := int64(r[1]) - int64(r[3])
		m[i*4+0] = s0 + s1
		m[i*4+1] = s0 - s1
		m[i*4+2] = d0 + d1
		m[i*4+3] = d0 - d1
	}
	// Vertical butterflies and accumulation.
	var sum int64
	for j := 0; j < 4; j++ {
		s0 := m[0*4+j] + m[2*4+j]
		d0 := m[0*4+j] - m[2*4+j]
		s1 := m[1*4+j] + m[3*4+j]
		d1 := m[1*4+j] - m[3*4+j]
		sum += abs64(s0+s1) + abs64(s0-s1) + abs64(d0+d1) + abs64(d0-d1)
	}
	return sum
}

// satdRef is the copy-and-transform reference for SATD.
func satdRef(res []int32, w, h int) int64 {
	var total int64
	var blk [16]int32
	for by := 0; by < h; by += 4 {
		for bx := 0; bx < w; bx += 4 {
			for y := 0; y < 4; y++ {
				copy(blk[y*4:y*4+4], res[(by+y)*w+bx:(by+y)*w+bx+4])
			}
			total += satd4Ref(blk[:])
		}
	}
	return total
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Quantize maps Q3 coefficients to quantization levels:
// level = sign(c) · floor((|c|·8 + dz·qstep/64) / qstep).
// coeffs and levels may alias.
func Quantize(coeffs []int32, levels []int32, qp int, dz DeadZone) {
	step := int64(QStepQ6(qp))
	offset := step * int64(dz) / 64
	for i, c := range coeffs {
		v := int64(c) * 8 // Q3 → Q6
		neg := v < 0
		if neg {
			v = -v
		}
		l := (v + offset) / step
		if neg {
			l = -l
		}
		levels[i] = int32(l)
	}
}
