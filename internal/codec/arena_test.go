package codec

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"vbench/internal/video"
)

// fullTools is a tool set that exercises every scratch-memory consumer
// at once: intra4 and 16×16 candidates, the 8×8 transform retry, sharp
// interpolation (motion.Scratch temporaries), trellis, adaptive quant,
// and full RD mode with skip candidates in the final comparison.
func fullTools() Tools {
	t := BaselineTools(PresetVerySlow)
	t.Name = "full-arena"
	t.Intra4x4 = true
	t.SharpInterp = true
	t.Transform8x8 = true
	t.Trellis = true
	t.AdaptiveQuant = true
	return t
}

func arenaToolVariants() []Tools {
	return append(allToolVariantsCommon(), fullTools())
}

func allToolVariantsCommon() []Tools {
	return []Tools{
		BaselineTools(PresetUltraFast),
		BaselineTools(PresetMedium),
		BaselineTools(PresetVerySlow),
	}
}

type encodeOut struct {
	bitstream []byte
	recon     *video.Sequence
}

func encodeOnce(t *testing.T, src *video.Sequence, tools Tools, cfg Config) encodeOut {
	t.Helper()
	eng := &Engine{Tools: tools}
	res, err := eng.Encode(src, cfg)
	if err != nil {
		t.Fatalf("encode (%s): %v", tools.Name, err)
	}
	return encodeOut{bitstream: res.Bitstream, recon: res.Recon}
}

func requireIdentical(t *testing.T, want, got encodeOut, label string) {
	t.Helper()
	if !bytes.Equal(want.bitstream, got.bitstream) {
		t.Fatalf("%s: bitstream differs from fresh-allocation encode", label)
	}
	if len(want.recon.Frames) != len(got.recon.Frames) {
		t.Fatalf("%s: recon has %d frames, want %d", label, len(got.recon.Frames), len(want.recon.Frames))
	}
	for i := range want.recon.Frames {
		if !want.recon.Frames[i].Equal(got.recon.Frames[i]) {
			t.Fatalf("%s: recon frame %d differs from fresh-allocation encode", label, i)
		}
	}
}

// TestPooledEncodeMatchesFreshAllocation pins the determinism contract
// of the scratch arenas and the frame pool: an encode drawing recycled
// memory must be byte-identical to one running on fresh allocations.
// Bordered reconstructions are recycled once evicted from the
// reference list, at aligned and macroblock-padded dimensions alike;
// the returned sequence is always a copy.
func TestPooledEncodeMatchesFreshAllocation(t *testing.T) {
	dims := [][2]int{{64, 48}, {52, 38}}
	cfgs := []Config{
		{RC: RCConstQP, QP: 28},
		{RC: RCConstQP, QP: 30, Slices: 3},
		{RC: RCTwoPass, BitrateBPS: 250000, KeyInterval: 4},
	}
	for _, d := range dims {
		src := testSequence(t, d[0], d[1], 6, defaultParams())
		for _, tools := range arenaToolVariants() {
			for ci, cfg := range cfgs {
				label := fmt.Sprintf("%dx%d/%s/cfg%d", d[0], d[1], tools.Name, ci)

				video.SetFramePooling(false)
				fresh := encodeOnce(t, src, tools, cfg)
				video.SetFramePooling(true)

				// Twice with pooling on: the first run seeds the pool,
				// the second actually reuses dirty frames.
				for round := 0; round < 2; round++ {
					pooled := encodeOnce(t, src, tools, cfg)
					requireIdentical(t, fresh, pooled, fmt.Sprintf("%s round %d", label, round))
				}

				dec, _, err := Decode(fresh.bitstream)
				if err != nil {
					t.Fatalf("%s: decode: %v", label, err)
				}
				for i := range dec.Frames {
					if !dec.Frames[i].Equal(fresh.recon.Frames[i]) {
						t.Fatalf("%s: decoder output differs from encoder reconstruction at frame %d", label, i)
					}
				}
			}
		}
	}
}

// TestConcurrentPooledEncodesAreDeterministic runs many encoders
// concurrently against the shared frame pool (run under -race by make
// check). Cross-contamination through recycled frames, candidate
// structs, or level arenas would show up as a bitstream diff or a race
// report.
func TestConcurrentPooledEncodesAreDeterministic(t *testing.T) {
	src := testSequence(t, 52, 38, 5, defaultParams())
	variants := arenaToolVariants()
	cfg := Config{RC: RCConstQP, QP: 30, Slices: 2}

	video.SetFramePooling(false)
	baseline := make([]encodeOut, len(variants))
	for i, tools := range variants {
		baseline[i] = encodeOnce(t, src, tools, cfg)
	}
	video.SetFramePooling(true)

	const goroutinesPerVariant = 3
	const iters = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(variants)*goroutinesPerVariant)
	for i, tools := range variants {
		for g := 0; g < goroutinesPerVariant; g++ {
			wg.Add(1)
			go func(i int, tools Tools, g int) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					eng := &Engine{Tools: tools}
					res, err := eng.Encode(src, cfg)
					if err != nil {
						errs <- fmt.Errorf("%s g%d it%d: %v", tools.Name, g, it, err)
						return
					}
					if !bytes.Equal(res.Bitstream, baseline[i].bitstream) {
						errs <- fmt.Errorf("%s g%d it%d: bitstream differs under concurrent pooled encode", tools.Name, g, it)
						return
					}
					for f := range res.Recon.Frames {
						if !res.Recon.Frames[f].Equal(baseline[i].recon.Frames[f]) {
							errs <- fmt.Errorf("%s g%d it%d: recon frame %d differs", tools.Name, g, it, f)
							return
						}
					}
				}
			}(i, tools, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLevelArenaTakeAndReset(t *testing.T) {
	var a levelArena
	s1 := a.take(16)
	if len(s1) != 16 {
		t.Fatalf("take(16) returned len %d", len(s1))
	}
	for i := range s1 {
		s1[i] = int32(i + 1)
	}
	s2 := a.take(64)
	for i := range s2 {
		s2[i] = -1
	}
	for i := range s1 {
		if s1[i] != int32(i+1) {
			t.Fatalf("second take corrupted first slice at %d", i)
		}
	}
	// Appending to an arena slice must not bleed into the neighbour.
	s1 = append(s1, 99)
	if s2[0] != -1 {
		t.Fatal("append to arena slice overwrote the next allocation")
	}
	if a.overflows != 0 {
		t.Fatalf("unexpected overflows %d", a.overflows)
	}
	a.reset()
	if a.off != 0 {
		t.Fatalf("reset left off = %d", a.off)
	}
	// Exhaust the arena: the fallback must still hand out usable
	// memory and count the overflow.
	total := 0
	for total+64 <= levelArenaCap {
		a.take(64)
		total += 64
	}
	over := a.take(64)
	if len(over) != 64 {
		t.Fatalf("overflow take returned len %d", len(over))
	}
	if a.overflows != 1 {
		t.Fatalf("overflows = %d, want 1", a.overflows)
	}
	// A nil arena degrades to plain heap allocation.
	var nilArena *levelArena
	s := nilArena.take(16)
	if len(s) != 16 {
		t.Fatalf("nil arena take returned len %d", len(s))
	}
}

func TestCandPoolRecycles(t *testing.T) {
	var p candPool
	c1 := p.get()
	c2 := p.get()
	if p.fresh != 2 {
		t.Fatalf("fresh = %d, want 2", p.fresh)
	}
	c1.qp = 31
	p.put(c1)
	c3 := p.get()
	if c3 != c1 {
		t.Fatal("pool did not recycle the released candidate")
	}
	if p.fresh != 2 {
		t.Fatalf("fresh = %d after recycle, want 2", p.fresh)
	}
	p.put(nil) // nil-safe
	p.put(c2)
	p.put(c3)
}
