package kern

import "encoding/binary"

// The interpolation kernels never clamp: the caller guarantees that
// every tap of every output sample is addressable from ref — rows
// 0..bh and columns 0..bw (inclusive) for the bilinear kernels, bh+3
// rows of bw+3 samples for the 4-tap one. internal/codec/motion meets
// that for every vector by reading from bordered reference planes
// after clamping the block origin into the border (motion.EdgeReach),
// so edge positions take these kernels too.
//
// Lane safety: weights are the quarter-pel (Σw = 16, round 8, shift 4)
// or eighth-pel (Σw = 64, round 32, shift 6) bilinear sets, so a lane
// accumulates at most 255·64 + 32 = 16352 < 2¹⁶ and the shifted result
// is an exact sample value ≤ 255.

// bilerpLanes interpolates four 16-bit lanes: (a·w00 + b·w10 + c·w01 +
// d·w11 + round) >> shift, masked back to sample range. rlanes holds
// the rounding constant replicated per lane.
func bilerpLanes(a, b, c, d, w00, w10, w01, w11, rlanes uint64, shift uint) uint64 {
	return (a*w00 + b*w10 + c*w01 + d*w11 + rlanes) >> shift & laneEven
}

// PredictBilinear writes the bw×bh bilinear interpolation of ref into
// dst. ref points at the top-left integer tap (it must address bh+1
// rows of bw+1 samples with stride refStride); dst uses dstStride.
// w00..w11 are the bilinear weights, with rounding term round and
// right shift.
//
//vbench:noalloc
func PredictBilinear(dst []uint8, dstStride int, ref []uint8, refStride int, w00, w10, w01, w11, round int, shift uint, bw, bh int) {
	u00, u10, u01, u11 := uint64(w00), uint64(w10), uint64(w01), uint64(w11)
	rlanes := uint64(round) * laneOnes
	for y := 0; y < bh; y++ {
		r0 := ref[y*refStride:]
		r1 := ref[(y+1)*refStride:]
		d := dst[y*dstStride:]
		x := 0
		for ; x+8 <= bw; x += 8 {
			a := binary.LittleEndian.Uint64(r0[x:])
			b := binary.LittleEndian.Uint64(r0[x+1:])
			c := binary.LittleEndian.Uint64(r1[x:])
			e := binary.LittleEndian.Uint64(r1[x+1:])
			pe := bilerpLanes(a&laneEven, b&laneEven, c&laneEven, e&laneEven, u00, u10, u01, u11, rlanes, shift)
			po := bilerpLanes(a>>8&laneEven, b>>8&laneEven, c>>8&laneEven, e>>8&laneEven, u00, u10, u01, u11, rlanes, shift)
			binary.LittleEndian.PutUint64(d[x:], pe|po<<8)
		}
		for ; x < bw; x++ {
			a := int(r0[x])
			b := int(r0[x+1])
			c := int(r1[x])
			e := int(r1[x+1])
			d[x] = uint8((a*w00 + b*w10 + c*w01 + e*w11 + round) >> shift)
		}
	}
}

// BilinearSADThresh fuses bilinear interpolation with SAD against the
// current block, with the same deterministic per-row early termination
// as SADThresh. cur points at the top-left of the current block
// (stride curStride); ref points at the top-left integer tap of the
// interior interpolation window (stride refStride). Weight, round,
// and shift parameters follow PredictBilinear. The interpolated
// samples are never materialized, saving a store/reload round trip
// per sub-pel motion candidate.
//
//vbench:noalloc
func BilinearSADThresh(cur []uint8, curStride int, ref []uint8, refStride int, w00, w10, w01, w11, round int, shift uint, bw, bh int, thresh int64) (sad int64, early bool) {
	if thresh <= 0 {
		return 0, true
	}
	u00, u10, u01, u11 := uint64(w00), uint64(w10), uint64(w01), uint64(w11)
	rlanes := uint64(round) * laneOnes
	var sum int64
	for y := 0; y < bh; y++ {
		r0 := ref[y*refStride:]
		r1 := ref[(y+1)*refStride:]
		cr := cur[y*curStride:]
		var acc uint64
		chunks := 0
		x := 0
		for ; x+8 <= bw; x += 8 {
			a := binary.LittleEndian.Uint64(r0[x:])
			b := binary.LittleEndian.Uint64(r0[x+1:])
			c := binary.LittleEndian.Uint64(r1[x:])
			e := binary.LittleEndian.Uint64(r1[x+1:])
			pe := bilerpLanes(a&laneEven, b&laneEven, c&laneEven, e&laneEven, u00, u10, u01, u11, rlanes, shift)
			po := bilerpLanes(a>>8&laneEven, b>>8&laneEven, c>>8&laneEven, e>>8&laneEven, u00, u10, u01, u11, rlanes, shift)
			xc := binary.LittleEndian.Uint64(cr[x:])
			acc += absLanes(xc&laneEven, pe) + absLanes(xc>>8&laneEven, po)
			if chunks++; chunks == flushChunks {
				sum += laneSum(acc)
				acc, chunks = 0, 0
			}
		}
		sum += laneSum(acc)
		for ; x < bw; x++ {
			a := int(r0[x])
			b := int(r0[x+1])
			c := int(r1[x])
			e := int(r1[x+1])
			p := (a*w00 + b*w10 + c*w01 + e*w11 + round) >> shift
			d := int(cr[x]) - p
			if d < 0 {
				d = -d
			}
			sum += int64(d)
		}
		if sum >= thresh && y+1 < bh {
			return sum, true
		}
	}
	return sum, false
}

// PredictSharp writes the bw×bh separable 4-tap interpolation of ref
// into dst (stride dstStride): a horizontal pass with taps wx over
// bh+3 rows into tmp (Q6), then a vertical pass with taps wy, rounded
// from Q12 and clipped to sample range. ref points one row above and
// one column left of the block's integer origin and must address bh+3
// rows of bw+3 samples with stride refStride; tmp must hold
// bw·(bh+3) values. The taps sum to 64 with absolute sum at most 78,
// so the first pass stays within ±78·255 and the second within
// ±78²·255: int32 carries both exactly.
//
//vbench:noalloc
func PredictSharp(dst []uint8, dstStride int, ref []uint8, refStride int, wx, wy *[4]int32, tmp []int32, bw, bh int) {
	tmp = tmp[:bw*(bh+3)]
	for y := 0; y < bh+3; y++ {
		r := ref[y*refStride : y*refStride+bw+3]
		t := tmp[y*bw : (y+1)*bw]
		for x := range t {
			t[x] = wx[0]*int32(r[x]) + wx[1]*int32(r[x+1]) + wx[2]*int32(r[x+2]) + wx[3]*int32(r[x+3])
		}
	}
	for y := 0; y < bh; y++ {
		t0 := tmp[y*bw : (y+1)*bw]
		t1 := tmp[(y+1)*bw : (y+2)*bw]
		t2 := tmp[(y+2)*bw : (y+3)*bw]
		t3 := tmp[(y+3)*bw : (y+4)*bw]
		d := dst[y*dstStride : y*dstStride+bw]
		for x := range d {
			v := (wy[0]*t0[x] + wy[1]*t1[x] + wy[2]*t2[x] + wy[3]*t3[x] + 2048) >> 12
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			d[x] = uint8(v)
		}
	}
}
