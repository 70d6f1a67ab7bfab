package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vbench/internal/codec/motion"
	"vbench/internal/codec/predict"
	"vbench/internal/video"
)

// Bitstream container layout ("VBC1"):
//
//	sequence header (fixed, big-endian):
//	  magic   [4]byte "VBC1"
//	  width   uint16  (display luma width)
//	  height  uint16  (display luma height)
//	  fps     uint32  (framerate × 1000)
//	  frames  uint16
//	  flags   uint8   (bit0 arith entropy, bit1 tx8 allowed,
//	                   bit2 deblock, bit3 adaptive quant, bit4 rich
//	                   contexts, bit5 sharp interpolation, bit6 4x4
//	                   intra allowed)
//	  refs    uint8   (reference frame count)
//	  slices  uint8   (independently coded horizontal bands per frame)
//	per frame:
//	  type    uint8   (0 = I, 1 = P)
//	  baseQP  uint8
//	  per slice (top to bottom):
//	    size    uint32  (payload bytes)
//	    payload []byte  (macroblock layer in the selected entropy coder)

const magic = "VBC1"

// MBSize is the macroblock dimension in luma pixels.
const MBSize = 16

// Frame types.
const (
	frameI = 0
	frameP = 1
)

// seqHeader carries the decoder-relevant sequence parameters.
type seqHeader struct {
	width, height int // display dimensions
	fpsMilli      uint32
	frames        int
	entropy       EntropyKind
	tx8Allowed    bool
	deblock       bool
	adaptiveQuant bool
	richContexts  bool
	sharpInterp   bool
	intra4Allowed bool
	refs          int
	slices        int
}

func (h *seqHeader) paddedWidth() int  { return ceilMB(h.width) }
func (h *seqHeader) paddedHeight() int { return ceilMB(h.height) }

func ceilMB(v int) int { return (v + MBSize - 1) / MBSize * MBSize }

func (h *seqHeader) marshal() []byte {
	buf := make([]byte, 0, 16)
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.width))
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.height))
	buf = binary.BigEndian.AppendUint32(buf, h.fpsMilli)
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.frames))
	var flags uint8
	if h.entropy == EntropyArith {
		flags |= 1
	}
	if h.tx8Allowed {
		flags |= 2
	}
	if h.deblock {
		flags |= 4
	}
	if h.adaptiveQuant {
		flags |= 8
	}
	if h.richContexts {
		flags |= 16
	}
	if h.sharpInterp {
		flags |= 32
	}
	if h.intra4Allowed {
		flags |= 64
	}
	buf = append(buf, flags, uint8(h.refs), uint8(h.slices))
	return buf
}

func parseSeqHeader(data []byte) (*seqHeader, int, error) {
	const hdrLen = 4 + 2 + 2 + 4 + 2 + 1 + 1 + 1
	if len(data) < hdrLen {
		return nil, 0, errors.New("codec: truncated sequence header")
	}
	if string(data[:4]) != magic {
		return nil, 0, fmt.Errorf("codec: bad magic %q", data[:4])
	}
	h := &seqHeader{
		width:    int(binary.BigEndian.Uint16(data[4:6])),
		height:   int(binary.BigEndian.Uint16(data[6:8])),
		fpsMilli: binary.BigEndian.Uint32(data[8:12]),
		frames:   int(binary.BigEndian.Uint16(data[12:14])),
	}
	flags := data[14]
	if flags&1 != 0 {
		h.entropy = EntropyArith
	}
	h.tx8Allowed = flags&2 != 0
	h.deblock = flags&4 != 0
	h.adaptiveQuant = flags&8 != 0
	h.richContexts = flags&16 != 0
	h.sharpInterp = flags&32 != 0
	h.intra4Allowed = flags&64 != 0
	h.refs = int(data[15])
	h.slices = int(data[16])
	if h.width <= 0 || h.height <= 0 {
		return nil, 0, errors.New("codec: invalid dimensions in header")
	}
	if h.width > maxDimension || h.height > maxDimension {
		return nil, 0, fmt.Errorf("codec: dimensions %dx%d exceed the %d limit", h.width, h.height, maxDimension)
	}
	if h.width%2 != 0 || h.height%2 != 0 {
		return nil, 0, fmt.Errorf("codec: odd dimensions %dx%d", h.width, h.height)
	}
	if h.refs < 1 || h.refs > 8 {
		return nil, 0, fmt.Errorf("codec: invalid reference count %d", h.refs)
	}
	if h.slices < 1 || h.slices > 64 {
		return nil, 0, fmt.Errorf("codec: invalid slice count %d", h.slices)
	}
	if h.slices > h.paddedHeight()/MBSize {
		return nil, 0, fmt.Errorf("codec: %d slices for %d macroblock rows", h.slices, h.paddedHeight()/MBSize)
	}
	return h, hdrLen, nil
}

// maxDimension bounds decoded frame sizes so a corrupt header cannot
// trigger pathological allocations (8K video is the practical
// ceiling).
const maxDimension = 8192

// MB coding modes.
const (
	mbSkip = iota
	mbInter
	mbIntra
)

// mbInfo is the per-macroblock state needed for spatial prediction of
// later macroblocks (motion-vector prediction), maintained identically
// by encoder and decoder.
type mbInfo struct {
	mode int
	mv   motion.MV
	ref  int
	qp   int
}

// mbGrid holds per-MB info for the frame being coded.
type mbGrid struct {
	w, h int // in macroblocks
	info []mbInfo
}

func newMBGrid(wMB, hMB int) *mbGrid {
	return &mbGrid{w: wMB, h: hMB, info: make([]mbInfo, wMB*hMB)}
}

func (g *mbGrid) at(x, y int) *mbInfo { return &g.info[y*g.w+x] }

// neighborMV returns the motion vector contribution of the MB at
// (x, y): zero if out of frame or not inter-coded.
func (g *mbGrid) neighborMV(x, y int) motion.MV {
	if x < 0 || y < 0 || x >= g.w || y >= g.h {
		return motion.MV{}
	}
	in := g.at(x, y)
	if in.mode == mbIntra {
		return motion.MV{}
	}
	return in.mv
}

// predMV computes the median motion-vector predictor for MB (x, y)
// from the left, top, and top-right neighbours (top-left substitutes
// when top-right is unavailable, as in H.264).
func (g *mbGrid) predMV(x, y int) motion.MV {
	left := g.neighborMV(x-1, y)
	top := g.neighborMV(x, y-1)
	var diag motion.MV
	if x+1 < g.w && y > 0 {
		diag = g.neighborMV(x+1, y-1)
	} else {
		diag = g.neighborMV(x-1, y-1)
	}
	return motion.MedianMV(left, top, diag)
}

// mbCand is a fully evaluated macroblock coding candidate: the syntax
// elements to serialize plus the reconstruction they imply.
// lumaModeIntra4 is the coded luma-mode value announcing per-4×4
// intra prediction (the values below it are the 16×16 predict.Modes).
const lumaModeIntra4 = uint32(predict.NumModes)

type mbCand struct {
	mode       int
	mv         motion.MV
	ref        int
	lumaMode   predict.Mode
	chromaMode predict.Mode
	intra4     bool
	luma4Modes [16]predict.Mode
	tx8        bool
	qp         int
	qpDelta    int

	// Quantized levels in zigzag order, referencing slices of the
	// owning encoder/decoder's levelArena. Luma has 4 blocks of 64
	// when tx8 (entries 4..15 unused), else 16 blocks of 16; chroma
	// always 4 blocks of 16 per plane. nil slices mean uncoded
	// (all-zero) blocks. Fixed-size arrays so recycling a candidate
	// allocates nothing.
	lumaLevels   [16][]int32
	chromaLevels [2][4][]int32

	// Reconstructed samples.
	lumaRecon   [MBSize * MBSize]uint8
	chromaRecon [2][64]uint8
}

// lumaQuadCoded reports whether any block in luma quadrant q (0..3)
// has coefficients.
func (c *mbCand) lumaQuadCoded(q int) bool {
	if c.tx8 {
		return c.lumaLevels[q] != nil
	}
	for _, b := range quadBlocks4[q] {
		if c.lumaLevels[b] != nil {
			return true
		}
	}
	return false
}

// chromaPlaneCoded reports whether chroma plane p has coefficients.
func (c *mbCand) chromaPlaneCoded(p int) bool {
	for _, blk := range c.chromaLevels[p] {
		if blk != nil {
			return true
		}
	}
	return false
}

// quadBlocks4 lists the 4×4 block indices (raster order within the MB,
// 4 blocks per row) belonging to each 8×8 quadrant.
var quadBlocks4 = [4][4]int{
	{0, 1, 4, 5},
	{2, 3, 6, 7},
	{8, 9, 12, 13},
	{10, 11, 14, 15},
}

// block4Offset returns the pixel offset of 4×4 luma block b within the
// macroblock.
func block4Offset(b int) (x, y int) { return (b % 4) * 4, (b / 4) * 4 }

// block8Offset returns the pixel offset of 8×8 luma block q within the
// macroblock.
func block8Offset(q int) (x, y int) { return (q % 2) * 8, (q / 2) * 8 }

// padFrame returns a copy of f extended to macroblock-aligned
// dimensions by edge replication. If the frame is already aligned the
// original is returned unchanged.
func padFrame(f *video.Frame) *video.Frame {
	pw, ph := ceilMB(f.Width), ceilMB(f.Height)
	if pw == f.Width && ph == f.Height {
		return f
	}
	g := video.NewFrame(pw, ph)
	copyPad(g.Y, pw, ph, f.Y, f.Width, f.Height)
	copyPad(g.Cb, pw/2, ph/2, f.Cb, f.Width/2, f.Height/2)
	copyPad(g.Cr, pw/2, ph/2, f.Cr, f.Width/2, f.Height/2)
	return g
}

func copyPad(dst []uint8, dw, dh int, src []uint8, sw, sh int) {
	for y := 0; y < dh; y++ {
		sy := y
		if sy >= sh {
			sy = sh - 1
		}
		for x := 0; x < dw; x++ {
			sx := x
			if sx >= sw {
				sx = sw - 1
			}
			dst[y*dw+x] = src[sy*sw+sx]
		}
	}
}

// RefPad is the width, in luma samples, of the replicated border
// around every reconstructed picture; chroma planes carry RefPad/2.
// Motion compensation reads references through that border instead of
// clamping each sample (see motion.EdgeReach and DESIGN.md, "Bordered
// references"). A frame of (W+2·RefPad)×(H+2·RefPad) luma samples has
// exactly that chroma border, so a bordered picture is an ordinary
// pooled video.Frame.
const RefPad = 32

// The border must hold a whole macroblock-sized block plus the
// motion-compensation reach in every plane; either line fails to
// compile otherwise.
const (
	_ = uint(RefPad - (MBSize + motion.EdgeReach))
	_ = uint(RefPad/2 - (MBSize/2 + motion.EdgeReach))
)

// getRecon returns a pooled bordered picture for a w×h (macroblock-
// padded) reconstruction. Every interior sample is written by a
// macroblock commit and every border sample by extendBorders, so the
// pooled contents never leak into output.
func getRecon(w, h int) *video.Frame {
	return video.GetFrame(w+2*RefPad, h+2*RefPad)
}

// reconPlane returns the bordered view of plane p of a picture from
// getRecon.
func reconPlane(f *video.Frame, p video.Plane) motion.Plane {
	pix, w, h := f.PlaneData(p)
	b := RefPad
	if p != video.PlaneY {
		b = RefPad / 2
	}
	return motion.Plane{Pix: pix, W: w - 2*b, H: h - 2*b, Stride: w, Border: b}
}

// srcPlane returns the unbordered view of plane p of a source frame.
func srcPlane(f *video.Frame, p video.Plane) motion.Plane {
	pix, w, h := f.PlaneData(p)
	return motion.NewPlane(pix, w, h)
}

// chromaID maps a chroma index (0 Cb, 1 Cr) to its plane.
func chromaID(p int) video.Plane { return video.PlaneCb + video.Plane(p) }

// allPlanes lists the planes of a frame.
var allPlanes = [3]video.Plane{video.PlaneY, video.PlaneCb, video.PlaneCr}

// extendBorders fills the border of every plane of a finished
// reconstruction, making it a motion-compensation reference.
func extendBorders(f *video.Frame) {
	for _, p := range allPlanes {
		reconPlane(f, p).ExtendBorder()
	}
}

// commitMB writes a macroblock's reconstruction, at luma position
// (px, py), into the interior of a bordered picture.
func commitMB(f *video.Frame, c *mbCand, px, py int) {
	y := reconPlane(f, video.PlaneY)
	for r := 0; r < MBSize; r++ {
		copy(y.Pix[y.Off(px, py+r):][:MBSize], c.lumaRecon[r*MBSize:(r+1)*MBSize])
	}
	for p := 0; p < 2; p++ {
		cp := reconPlane(f, chromaID(p))
		for r := 0; r < 8; r++ {
			copy(cp.Pix[cp.Off(px/2, py/2+r):][:8], c.chromaRecon[p][r*8:(r+1)*8])
		}
	}
}

// cropFrame copies the top-left width×height of a bordered
// reconstruction's interior into a new frame. It always copies, so
// output frames never alias a pooled reference.
func cropFrame(f *video.Frame, width, height int) *video.Frame {
	g := video.NewFrame(width, height)
	for _, p := range allPlanes {
		src := reconPlane(f, p)
		dst, w, h := g.PlaneData(p)
		for y := 0; y < h; y++ {
			copy(dst[y*w:(y+1)*w], src.Pix[src.Off(0, y):])
		}
	}
	return g
}
