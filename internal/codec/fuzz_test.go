package codec

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vbench/internal/codec/motion"
	"vbench/internal/codec/predict"
)

// FuzzDecode feeds arbitrary bytes to the decoder, the codec's trust
// boundary. Motion compensation reads bordered references after
// clamping each block's origin (motion.EdgeReach), so a vector of any
// size — a hostile stream can code ±2³¹ quarter-pel — must decode
// without indexing out of range. The property: Decode never panics,
// and a stream it accepts yields the header's frame count at the
// header's display size.
//
// The checked-in seeds in testdata/fuzz/FuzzDecode run with every
// plain `go test`. They hold the golden matrix's macroblock-padded
// 36×20 encodes and hand-built streams whose vectors point ±2²⁰
// quarter-pel outside the frame, on both entropy coders and both
// interpolation filters. Regenerate them with
//
//	go test ./internal/codec -run TestFuzzDecodeSeeds -update-fuzz-seeds
//
// and fuzz with
//
//	go test ./internal/codec -run '^$' -fuzz '^FuzzDecode$' -fuzztime 30s
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if hdr, _, err := parseSeqHeader(data); err == nil && hdr.paddedWidth()*hdr.paddedHeight() > fuzzMaxPixels {
			// Huge pictures only cost memory and time: the size
			// checks have their own tests, and indexing does not
			// depend on the picture size.
			t.Skip("picture too large to fuzz cheaply")
		}
		seq, _, err := Decode(data)
		if err != nil {
			return
		}
		hdr, _, _ := parseSeqHeader(data)
		if len(seq.Frames) != hdr.frames {
			t.Fatalf("decoded %d frames, header says %d", len(seq.Frames), hdr.frames)
		}
		for i, fr := range seq.Frames {
			if fr.Width != hdr.width || fr.Height != hdr.height {
				t.Fatalf("frame %d is %dx%d, header says %dx%d", i, fr.Width, fr.Height, hdr.width, hdr.height)
			}
		}
	})
}

// fuzzMaxPixels bounds the padded picture size the fuzz target decodes.
const fuzzMaxPixels = 256 * 256

var updateFuzzSeeds = flag.Bool("update-fuzz-seeds", false, "rewrite testdata/fuzz/FuzzDecode from the current encoder")

const fuzzSeedDir = "testdata/fuzz/FuzzDecode"

// farVectors are the vectors of the hostile seeds: ±2²⁰ quarter-pel
// toward every corner, with integer and sub-pel phases.
var farVectors = []motion.MV{
	{X: 1 << 20, Y: 1 << 20},
	{X: -(1 << 20), Y: -(1 << 20)},
	{X: 1<<20 + 1, Y: -(1 << 20) + 2},
	{X: -(1 << 20) + 3, Y: 1<<20 + 3},
	{X: 1 << 20, Y: 5},
	{X: -6, Y: -(1 << 20) - 1},
}

// fuzzSeeds builds the seed corpus, keyed by file name.
func fuzzSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	seeds := map[string][]byte{}
	src := goldenSequence(t, 36, 20)
	for _, name := range []string{"rich", "ultrafast"} {
		res, err := (&Engine{Tools: goldenTools()[name]}).Encode(src, Config{RC: RCConstQP, QP: 28, KeyInterval: 4})
		if err != nil {
			t.Fatal(err)
		}
		seeds["golden-36x20-"+name] = res.Bitstream
	}
	for _, v := range []struct {
		name  string
		arith bool
		sharp bool
		refs  int
	}{
		{"far-mv-golomb-bilinear", false, false, 1},
		{"far-mv-arith-sharp", true, true, 2},
	} {
		seeds[v.name] = farMVStream(v.arith, v.sharp, v.refs)
	}
	return seeds
}

// farMVStream hand-builds a 36×20 stream (3×2 macroblocks): an intra
// frame of flat DC macroblocks, then P frames whose macroblocks are
// inter-coded, residual-free, with the farVectors in turn.
func farMVStream(arith, sharp bool, refs int) []byte {
	hdr := &seqHeader{width: 36, height: 20, fpsMilli: 30000, frames: 3,
		sharpInterp: sharp, refs: refs, slices: 1}
	if arith {
		hdr.entropy = EntropyArith
	}
	mbW, mbH := hdr.paddedWidth()/MBSize, hdr.paddedHeight()/MBSize
	out := hdr.marshal()
	k := 0
	for fi := 0; fi < hdr.frames; fi++ {
		fe := &frameEncoder{hdr: hdr, ftype: frameP}
		if fi == 0 {
			fe.ftype = frameI
		}
		if arith {
			fe.w = newArithWriter()
		} else {
			fe.w = newGolombWriter()
		}
		grid := newMBGrid(mbW, mbH)
		for y := 0; y < mbH; y++ {
			for x := 0; x < mbW; x++ {
				c := &mbCand{mode: mbIntra, lumaMode: predict.ModeDC, chromaMode: predict.ModeDC}
				if fe.ftype == frameP {
					c = &mbCand{mode: mbInter, mv: farVectors[k%len(farVectors)], ref: k % min(fi, refs)}
					k++
				}
				pred := grid.predMV(x, y)
				fe.writeCand(c, pred)
				info := grid.at(x, y)
				info.mode, info.mv, info.ref = c.mode, c.mv, c.ref
			}
		}
		payload := fe.w.Flush()
		out = append(out, byte(fe.ftype), 28)
		out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
	}
	return out
}

// TestFuzzDecodeSeeds checks the checked-in corpus: every seed is
// current (or is rewritten under -update-fuzz-seeds) and decodes
// cleanly, so the fuzzer starts from streams that reach motion
// compensation rather than from ones the parser rejects.
func TestFuzzDecodeSeeds(t *testing.T) {
	for name, data := range fuzzSeeds(t) {
		path := filepath.Join(fuzzSeedDir, name)
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if *updateFuzzSeeds {
			if err := os.MkdirAll(fuzzSeedDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update-fuzz-seeds)", name, err)
		}
		if string(got) != entry {
			t.Errorf("%s: checked-in seed is stale (regenerate with -update-fuzz-seeds)", name)
		}
		seq, _, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: seed does not decode: %v", name, err)
		}
		if len(seq.Frames) == 0 || seq.Frames[0].Width != 36 || seq.Frames[0].Height != 20 {
			t.Fatalf("%s: decoded %d frames of unexpected size", name, len(seq.Frames))
		}
	}
}
