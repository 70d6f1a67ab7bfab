package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vbench/internal/corpus"
	"vbench/internal/harness"
	"vbench/internal/tables"
	"vbench/internal/telemetry"
)

// Grid geometry: the paper reproduction at 1/16 scale on 0.4 s clips.
const (
	gridScale    = 16
	gridDuration = 0.4
)

// gridGolden holds the digest of the grid's rendered tables and its
// encode count; regenerate it with `perfbench --write-digests`.
//
//go:embed testdata/grid.digest
var gridGolden string

// memoNames are the Runner caches harness.RegisterMetrics exposes.
var memoNames = []string{"seqs", "targets", "refs", "entropy"}

// study is one table- or figure-producing call of the grid.
type study struct {
	name string
	run  func(r *harness.Runner) (string, error)
}

// gridStudies lists the grid's studies in canonical (digest) order.
func gridStudies() []study {
	return []study{
		{"table2", func(r *harness.Runner) (string, error) { return render(r.Table2()) }},
		{"table3", func(r *harness.Runner) (string, error) { t, _, err := r.Table3(); return render(t, err) }},
		{"table4", func(r *harness.Runner) (string, error) { t, _, err := r.Table4(); return render(t, err) }},
		{"upload", func(r *harness.Runner) (string, error) { return render(r.UploadStudy()) }},
		{"uarch", func(r *harness.Runner) (string, error) {
			points, err := r.UArchStudy([]corpus.Suite{corpus.SuiteVBench})
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, fig := range []func([]harness.UArchPoint) (*tables.Table, error){harness.Figure5, harness.Figure6, harness.Figure7} {
				s, err := render(fig(points))
				if err != nil {
					return "", err
				}
				b.WriteString(s)
			}
			return b.String(), nil
		}},
		{"fig2", func(r *harness.Runner) (string, error) { t, _, err := r.Figure2("funny", nil); return render(t, err) }},
		{"decode", func(r *harness.Runner) (string, error) { return render(r.DecodeStudy()) }},
		{"platform", func(r *harness.Runner) (string, error) { return render(r.PlatformStudy()) }},
	}
}

func render(t *tables.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.String(), nil
}

// grid runs the paper reproduction on a fresh harness.Runner per
// round: Workers = nproc, no transcode cache.
type grid struct {
	studies []study
	order   []int // seed's study order
	digest  string
	encodes int64
	r       *harness.Runner
	reg     *telemetry.Registry

	// Traced-round accumulators.
	tracedEncodes    int64
	busy, capacity   float64
	memo             map[string]float64
	mbTotal, bitsOut int64
}

// Process-wide codec counters (always on) the grid's encodes add to.
var (
	codecMacroblocks = telemetry.GetCounter("codec.macroblocks")
	codecBitsOutput  = telemetry.GetCounter("codec.bits_output")
)

func newGrid(cfg config) *grid {
	g := &grid{studies: gridStudies(), memo: map[string]float64{}}
	g.digest, g.encodes = parseGridGolden(gridGolden)
	g.order = rand.New(rand.NewSource(cfg.seed)).Perm(len(g.studies))
	return g
}

// parseGridGolden reads "tables <sha256>" and "encodes <n>" lines.
func parseGridGolden(text string) (digest string, encodes int64) {
	kv, err := parseDigests(text)
	if err != nil {
		return "", -1
	}
	n, err := strconv.ParseInt(kv["encodes"], 10, 64)
	if err != nil {
		n = -1
	}
	return kv["tables"], n
}

// setUp builds a fresh Runner and warms every clip sequence.
func (g *grid) setUp(rec *recorder, parent int) error {
	g.r = harness.NewRunner(gridScale, gridDuration)
	g.r.Workers = runtime.NumCPU()
	g.reg = telemetry.NewRegistry()
	g.r.RegisterMetrics(g.reg)
	for _, c := range corpus.VBenchClips() {
		sp := rec.start("video.synth", parent, c.Name)
		_, err := g.r.Sequence(c)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// measure runs every study once, in the seed's order.
func (g *grid) measure(rec *recorder, parent int, s *sample) error {
	out := make([]string, len(g.studies))
	mb0, bits0 := codecMacroblocks.Value(), codecBitsOutput.Value()
	start := time.Now()
	var errs []string
	for _, i := range g.order {
		st := g.studies[i]
		sp := rec.start("harness."+st.name, parent, "grid")
		text, err := st.run(g.r)
		rec.end(sp)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", st.name, err))
		}
		out[i] = text
	}
	wall := time.Since(start).Seconds()
	encodes := g.r.Encodes()
	s.request(wall)
	s.drained(int(encodes), wall)
	s.attempted++
	sp := rec.start("bench.check", parent, "grid")
	err := checkGrid(out, encodes, g.digest, g.encodes)
	rec.end(sp)
	switch {
	case len(errs) > 0:
		s.fail("grid: %s", strings.Join(errs, "; "))
	case err != nil:
		s.fail("grid: %v", err)
	}
	if s.traced {
		g.tracedEncodes += encodes
		for _, ws := range g.r.PoolStats() {
			g.busy += ws.Busy.Seconds()
		}
		g.capacity += wall * float64(g.r.Workers)
		g.mbTotal += codecMacroblocks.Value() - mb0
		g.bitsOut += codecBitsOutput.Value() - bits0
		memo, err := gauges(g.reg)
		if err != nil {
			return err
		}
		for k, v := range memo {
			g.memo[k] += v
		}
	}
	return nil
}

// checkGrid checks the grid's outputs: the rendered tables must hash
// to the golden digest and the Runner must have made the golden
// number of encodes.
func checkGrid(tables []string, encodes int64, golden string, goldenEncodes int64) error {
	if d := tablesDigest(tables); d != golden {
		return fmt.Errorf("tables sha256 %s, golden %q", d, golden)
	}
	if encodes != goldenEncodes {
		return fmt.Errorf("%d encodes, golden %d", encodes, goldenEncodes)
	}
	return nil
}

func tablesDigest(tables []string) string {
	h := sha256.New()
	for _, t := range tables {
		fmt.Fprintf(h, "%d\n%s", len(t), t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gauges reads a registry snapshot's gauges.
func gauges(reg *telemetry.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		return nil, err
	}
	return snap.Gauges, nil
}

func (g *grid) tearDown(rec *recorder, parent int, s *sample) error {
	g.r, g.reg = nil, nil
	return nil
}

func (g *grid) layers(m map[string]float64, tracedRounds int) {
	r := float64(tracedRounds)
	m["harness.encodes"] = float64(g.tracedEncodes) / r
	if g.capacity > 0 {
		m["harness.pool_busy_ratio"] = g.busy / g.capacity
	}
	for _, memo := range memoNames {
		for _, k := range []string{"hits", "misses"} {
			name := "harness.memo." + memo + "." + k
			m[name] = g.memo[name] / r
		}
	}
	m["codec.mb_total"] = float64(g.mbTotal) / r
	m["codec.bits_output"] = float64(g.bitsOut) / r
}

// writeGridGolden runs the grid once in canonical order and writes its
// golden digest file.
func writeGridGolden(path string) error {
	g := newGrid(config{})
	for i := range g.order {
		g.order[i] = i
	}
	if err := g.setUp(nil, 0); err != nil {
		return err
	}
	out := make([]string, len(g.studies))
	for i, st := range g.studies {
		text, err := st.run(g.r)
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		out[i] = text
	}
	body := fmt.Sprintf("# grid workload golden output: sha256 of the rendered tables and the encode count\n# scale 1/%d, %g s clips; regenerate with perfbench --write-digests\ntables %s\nencodes %d\n",
		gridScale, gridDuration, tablesDigest(out), g.r.Encodes())
	return os.WriteFile(path, []byte(body), 0o644)
}

// writeGolden regenerates both golden files in dir.
func writeGolden(dir string) error {
	if err := writeGridGolden(filepath.Join(dir, "grid.digest")); err != nil {
		return err
	}
	return writeTranscodeDigests(filepath.Join(dir, "transcode.digests"))
}
