package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"vbench/internal/codec"
	"vbench/internal/corpus"
	"vbench/internal/metrics"
	"vbench/internal/perf"
	"vbench/internal/video"
)

// transcodeGolden holds the SHA-256 of the bitstream of every job of
// the transcode job list; regenerate it with
// `perfbench --write-digests testdata`.
//
//go:embed testdata/transcode.digests
var transcodeGolden string

// transcode is the closed-loop workload: one client runs the seed's
// job list one job at a time, each job an encode, a decode, a check
// that the decode equals the encoder's reconstruction, and PSNR+SSIM.
type transcode struct {
	clips  []corpus.Clip
	cfgs   []encoderConfig
	jobs   []transcodeJob
	golden map[string]string
	seqs   []*video.Sequence

	// Traced-round accumulators.
	encodeByConfig    map[string]float64
	ops               [perf.NumKernels]int64
	mbTotal, bitsOut  int64
	mpx               float64 // source megapixels encoded and decoded
	encodeSec, decSec float64
}

func newTranscode(cfg config) (*transcode, error) {
	golden, err := parseDigests(transcodeGolden)
	if err != nil {
		return nil, err
	}
	t := &transcode{
		clips:          corpus.VBenchClips(),
		cfgs:           transcodeConfigs(),
		golden:         golden,
		encodeByConfig: map[string]float64{},
	}
	t.jobs = transcodeJobs(cfg.seed, len(t.clips), len(t.cfgs))
	return t, nil
}

// setUp synthesizes every clip of the job list.
func (t *transcode) setUp(rec *recorder, parent int) error {
	t.seqs = make([]*video.Sequence, len(t.clips))
	for i, c := range t.clips {
		sp := rec.start("video.synth", parent, c.Name)
		seq, err := c.Generate(transcodeScale, transcodeDuration)
		rec.end(sp)
		if err != nil {
			return err
		}
		t.seqs[i] = seq
	}
	return nil
}

// measure runs the job list once.
func (t *transcode) measure(rec *recorder, parent int, s *sample) error {
	start := time.Now()
	for n, j := range t.jobs {
		id := fmt.Sprintf("job%d", n)
		t0 := time.Now()
		sp := rec.start("job", parent, id)
		if err := t.runJob(rec, sp, id, j, s); err != nil {
			s.fail("%s %s: %v", id, j.key(t.clips, t.cfgs), err)
		}
		rec.end(sp)
		s.request(time.Since(t0).Seconds())
		s.attempted++
	}
	s.drained(len(t.jobs), time.Since(start).Seconds())
	return nil
}

// runJob runs one job and checks its outputs.
func (t *transcode) runJob(rec *recorder, parent int, id string, j transcodeJob, s *sample) error {
	seq, cfg := t.seqs[j.clip], t.cfgs[j.config]
	f0 := seq.Frames[0]
	ccfg := j.codecConfig(cfg, f0.Width, f0.Height, seq.FrameRate)

	sp := rec.start("codec.encode", parent, id)
	t0 := time.Now()
	res, err := cfg.engine.Encode(seq, ccfg)
	encode := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.start("codec.decode", parent, id)
	t0 = time.Now()
	dec, dc, err := codec.Decode(res.Bitstream)
	decode := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.start("bench.check", parent, id)
	err = checkTranscode(res, dec, t.golden[j.key(t.clips, t.cfgs)])
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.start("metrics.quality", parent, id)
	psnr, perr := metrics.SequencePSNR(seq, res.Recon)
	ssim, serr := metrics.SequenceSSIM(seq, res.Recon)
	rec.end(sp)
	if perr != nil || serr != nil {
		return fmt.Errorf("quality: %v %v", perr, serr)
	}
	if !(psnr > 0) || !(ssim > 0 && ssim <= 1) || math.IsInf(psnr, 0) {
		return fmt.Errorf("implausible quality PSNR %v SSIM %v", psnr, ssim)
	}
	if s.traced {
		mpx := float64(f0.Width*f0.Height*len(seq.Frames)) / 1e6
		t.encodeByConfig[cfg.name] += encode.Seconds()
		t.mpx += mpx
		t.encodeSec += encode.Seconds()
		t.decSec += decode.Seconds()
		for k := range t.ops {
			t.ops[k] += res.Counters.Ops[k] + dc.Ops[k]
		}
		t.mbTotal += res.Counters.MBTotal
		t.bitsOut += res.Counters.BitsOutput
	}
	return nil
}

// checkTranscode checks a job's outputs: the decode must equal the
// encoder's reconstruction frame by frame, and the bitstream must hash
// to the golden digest.
func checkTranscode(res *codec.Result, dec *video.Sequence, golden string) error {
	if len(dec.Frames) != len(res.Recon.Frames) {
		return fmt.Errorf("decoded %d frames, encoder reconstructed %d", len(dec.Frames), len(res.Recon.Frames))
	}
	for i, f := range dec.Frames {
		r := res.Recon.Frames[i]
		if f.Width != r.Width || f.Height != r.Height ||
			!bytes.Equal(f.Y, r.Y) || !bytes.Equal(f.Cb, r.Cb) || !bytes.Equal(f.Cr, r.Cr) {
			return fmt.Errorf("decoded frame %d differs from the reconstruction", i)
		}
	}
	sum := sha256.Sum256(res.Bitstream)
	if got := hex.EncodeToString(sum[:]); got != golden {
		return fmt.Errorf("bitstream sha256 %s, golden %q", got, golden)
	}
	return nil
}

func (t *transcode) tearDown(rec *recorder, parent int, s *sample) error {
	t.seqs = nil
	return nil
}

func (t *transcode) layers(m map[string]float64, tracedRounds int) {
	r := float64(tracedRounds)
	for name, sec := range t.encodeByConfig {
		m["codec.encode_s."+name] = sec / r
	}
	for k, n := range t.ops {
		m["codec.ops."+perf.Kernel(k).String()] = float64(n) / r
	}
	m["codec.mb_total"] = float64(t.mbTotal) / r
	m["codec.bits_output"] = float64(t.bitsOut) / r
	m["codec.encode_mpx_s"] = t.mpx / t.encodeSec
	m["codec.decode_mpx_s"] = t.mpx / t.decSec
}

// kernelNames lists the perf.Counters kernels.
func kernelNames() []string {
	var out []string
	for _, k := range perf.Kernels() {
		out = append(out, k.String())
	}
	return out
}

// parseDigests reads "key sha256" lines.
func parseDigests(text string) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("digest line %q is not \"key sha256\"", line)
		}
		out[k] = v
	}
	return out, sc.Err()
}

// writeTranscodeDigests encodes every job of the transcode job list,
// the same jobs for every seed, and writes the golden digest file.
func writeTranscodeDigests(path string) error {
	clips, cfgs := corpus.VBenchClips(), transcodeConfigs()
	seqs := make([]*video.Sequence, len(clips))
	for i, c := range clips {
		seq, err := c.Generate(transcodeScale, transcodeDuration)
		if err != nil {
			return err
		}
		seqs[i] = seq
	}
	var lines []string
	for _, j := range transcodeJobs(0, len(clips), len(cfgs)) {
		seq, cfg := seqs[j.clip], cfgs[j.config]
		f0 := seq.Frames[0]
		res, err := cfg.engine.Encode(seq, j.codecConfig(cfg, f0.Width, f0.Height, seq.FrameRate))
		if err != nil {
			return fmt.Errorf("%s: %w", j.key(clips, cfgs), err)
		}
		sum := sha256.Sum256(res.Bitstream)
		lines = append(lines, j.key(clips, cfgs)+" "+hex.EncodeToString(sum[:]))
	}
	sort.Strings(lines)
	body := fmt.Sprintf("# transcode workload golden bitstream digests: clip/config/variant sha256\n# scale 1/%d, %g s; regenerate with perfbench --write-digests\n%s\n",
		transcodeScale, transcodeDuration, strings.Join(lines, "\n"))
	return os.WriteFile(path, []byte(body), 0o644)
}
