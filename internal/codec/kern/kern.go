// Package kern holds the SWAR-vectorized block kernels of the vbench
// codec: packed sum-of-absolute-differences (8 pixels per uint64 word)
// with deterministic early termination, bilinear interpolation and
// fused interpolate+SAD for sub-pel motion search, the separable 4-tap
// interpolation of the sharp-filter tool, fixed-size 4×4/8×8
// DCT butterflies with hoisted bounds checks, 4×4 Hadamard SATD, and
// reciprocal-table quantization with no per-coefficient divides.
//
// Every kernel is an exact drop-in for the scalar loop it replaces:
// same integer arithmetic, same results to the bit, on every platform
// (loads and stores go through encoding/binary with an explicit byte
// order, so lane layout does not depend on host endianness). The
// scalar implementations live on as the normative references in the
// test files of internal/codec/motion and internal/codec/transform;
// randomized cross-checks in those packages and in this one, plus the
// golden digest suite in internal/codec, enforce equivalence.
//
// SWAR layout: a uint64 word holds 8 consecutive samples. The even
// bytes (0,2,4,6) and odd bytes (1,3,5,7) are unpacked into two words
// of four 16-bit lanes each, so per-lane intermediates up to 2¹⁶−1
// cannot carry into a neighbouring sample. All kernel arithmetic keeps
// lane values strictly below 2¹⁶ (documented at each call site).
package kern

const (
	// laneEven masks the even bytes of a word into four 16-bit lanes.
	laneEven = 0x00FF00FF00FF00FF
	// laneMSB holds the sign bit of each 16-bit lane.
	laneMSB = 0x8000800080008000
	// laneOnes multiplies to sum four 16-bit lanes into the top 16
	// bits of the product (valid while the true sum is below 2¹⁶).
	laneOnes = 0x0001000100010001
)

// absLanes returns the per-lane absolute difference |a−b| of two
// words of four 16-bit lanes, each lane holding a value below 2⁸.
//
// The bias trick computes a−b+0x8000 per lane without cross-lane
// borrows (the forced msb absorbs the borrow of its own lane), so the
// msb of each biased lane is set exactly when a ≥ b. Clearing the
// bias leaves the two's-complement difference; negative lanes are
// then negated with a per-lane mask (complement and increment, where
// the increment cannot carry out of the lane because |a−b| ≤ 255).
func absLanes(a, b uint64) uint64 {
	t := (a | laneMSB) - b // lane: a − b + 0x8000
	ge := t & laneMSB      // msb set where a ≥ b
	t ^= laneMSB           // lane: a − b, two's complement
	s := laneMSB ^ ge      // 0x8000 in each negative lane
	lt := s >> 15          // 0x0001 in each negative lane
	m := s | (s - lt)      // 0xFFFF mask over each negative lane
	return (t ^ m) + lt
}

// laneSum sums four 16-bit lanes. The true sum must be below 2¹⁶.
func laneSum(v uint64) int64 {
	return int64(v * laneOnes >> 48)
}
