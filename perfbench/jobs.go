package main

import (
	"fmt"
	"math"
	"math/rand"

	"vbench/internal/codec"
	"vbench/internal/codec/hw"
	"vbench/internal/codec/profiles"
	"vbench/internal/corpus"
	"vbench/internal/fleet"
)

// Transcode workload geometry: every Table 2 clip at a quarter of its
// native linear resolution (chicken is 960x544), 0.1 s of content.
const (
	transcodeScale    = 4
	transcodeDuration = 0.1
	// transcodeRepeats is how often each (clip, config) pair appears
	// in the job list; 15 clips x 5 configs x 2 = 150 jobs, enough
	// that the p90 job latency has 15 jobs beyond it.
	transcodeRepeats = 2
	// variants is the number of quality settings per config; a pair's
	// repeats use evenly spaced ones (see transcodeJobs).
	variants = 4
)

// encoderConfig is one encoder setting of the transcode mix.
type encoderConfig struct {
	name   string
	engine *codec.Engine
	rc     codec.RCMode
}

// transcodeConfigs is the encoder mix: the reference x264 at constant
// QP, x264 veryfast under ABR, x265, vp9 two-pass and the NVENC
// analogue.
func transcodeConfigs() []encoderConfig {
	return []encoderConfig{
		{"x264-medium-cqp", profiles.X264(codec.PresetMedium), codec.RCConstQP},
		{"x264-veryfast-abr", profiles.X264(codec.PresetVeryFast), codec.RCBitrate},
		{"x265-medium-cqp", profiles.X265(codec.PresetMedium), codec.RCConstQP},
		{"vp9-medium-2pass", profiles.VP9(codec.PresetMedium), codec.RCTwoPass},
		{"nvenc-cqp", hw.NVENC(), codec.RCConstQP},
	}
}

// variantQP and variantBPP are the quality ladders a job's variant
// indexes: QP for constant-quantizer configs, bits per pixel for the
// bitrate-targeting ones.
var (
	variantQP  = [variants]int{22, 26, 30, 34}
	variantBPP = [variants]float64{0.4, 0.2, 0.1, 0.05}
)

// transcodeJob is one entry of the transcode job list.
type transcodeJob struct {
	clip    int // index into corpus.VBenchClips()
	config  int // index into transcodeConfigs()
	variant int
}

// key names the job's golden digest entry.
func (j transcodeJob) key(clips []corpus.Clip, cfgs []encoderConfig) string {
	return fmt.Sprintf("%s/%s/%d", clips[j.clip].Name, cfgs[j.config].name, j.variant)
}

// codecConfig builds the encoder configuration for a job whose source
// is w x h at fps.
func (j transcodeJob) codecConfig(cfg encoderConfig, w, h int, fps float64) codec.Config {
	c := codec.Config{RC: cfg.rc}
	if cfg.rc == codec.RCConstQP {
		c.QP = variantQP[j.variant]
	} else {
		c.BitrateBPS = math.Round(variantBPP[j.variant] * float64(w*h) * fps)
	}
	return c
}

// transcodeJobs returns the seed's job list. Every (clip, config) pair
// appears transcodeRepeats times, with evenly spaced variants whose
// phase alternates over the pairs, so every seed runs the same
// multiset of jobs and only their order comes from the seed. A
// per-pair random phase made the median job differ from seed to seed.
func transcodeJobs(seed int64, nclips, nconfigs int) []transcodeJob {
	var jobs []transcodeJob
	for c := 0; c < nclips; c++ {
		for k := 0; k < nconfigs; k++ {
			for r := 0; r < transcodeRepeats; r++ {
				v := ((c+k)%2 + r*variants/transcodeRepeats) % variants
				jobs = append(jobs, transcodeJob{clip: c, config: k, variant: v})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// Fleet workload geometry: the smallest encode jobs the corpus makes,
// 1/64 scale (32x32 luma for most clips) and two frames, which take
// about 1 ms to synthesize and encode on a 2-core host.
const (
	fleetScale    = 64
	fleetDuration = 0.05
)

// fleetEncoders are the worker-side encoders of the fleet catalogue.
var fleetEncoders = []string{"x264-veryfast", "x264-medium", "x265-medium", "vp9-medium"}

// fleetCatalogue returns one encode spec per clip, encoder and QP.
func fleetCatalogue(qps []int) []fleet.JobSpec {
	var specs []fleet.JobSpec
	for _, c := range corpus.VBenchClips() {
		for _, e := range fleetEncoders {
			for _, qp := range qps {
				specs = append(specs, fleet.JobSpec{
					Kind: fleet.KindEncode, Clip: c.Name, Encoder: e,
					Scale: fleetScale, Duration: fleetDuration, RC: "cqp", QP: qp,
				})
			}
		}
	}
	return specs
}

// popularRequests returns n indices into a catalogue of size c. The
// seed ranks the catalogue; each entry is requested once and the
// remaining n-c requests go to ranks in proportion to
// corpus.DefaultPopularity (largest remainder), so repeats — and with
// them cache hits — follow the popularity law while the set of
// distinct encodes is the whole catalogue for every seed. The order
// of the requests is shuffled by the seed too.
func popularRequests(seed int64, c, n int) []int {
	if n < c {
		panic(fmt.Sprintf("perfbench: %d requests cannot cover a catalogue of %d", n, c))
	}
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(c) // rank[i] is the catalogue index at popularity rank i+1
	pop := corpus.DefaultPopularity()
	weights := make([]float64, c)
	var total float64
	for i := range weights {
		weights[i] = pop.Weight(i + 1)
		total += weights[i]
	}
	extra := n - c
	quota := make([]int, c)
	rem := make([]float64, c)
	given := 0
	for i, w := range weights {
		share := float64(extra) * w / total
		quota[i] = int(share)
		rem[i] = share - float64(quota[i])
		given += quota[i]
	}
	for ; given < extra; given++ {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		quota[best]++
		rem[best] = -1
	}
	reqs := make([]int, 0, n)
	for i := range quota {
		for k := 0; k <= quota[i]; k++ {
			reqs = append(reqs, rank[i])
		}
	}
	rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	return reqs
}
