// Command perfbench is the repository's performance benchmark. It
// drives one workload through the program's public layers — clip
// synthesis, the codec, quality metrics, the harness, the transcode
// cache and the fleet — timing each call from outside, checks every
// output, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload transcode --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With
// --trace 1 the run alternates untraced and traced rounds and reports
// the per-layer metrics, and writes a Chrome trace and a self-time
// table under --out. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// workload is one benchmark workload. A run repeats rounds of set-up,
// timed phase and tear-down (see rounds).
type workload interface {
	// setUp does the work the round's timed phase needs; its wall
	// time is one setup_s sample.
	setUp(rec *recorder, parent int) error
	// measure runs the round's timed phase, adding to s.
	measure(rec *recorder, parent int, s *sample) error
	// tearDown releases the round's resources and checks what can
	// only be checked once the round is over.
	tearDown(rec *recorder, parent int, s *sample) error
	// layers adds the workload's own per-layer values (counts,
	// percentiles) for the traced rounds to m.
	layers(m map[string]float64, tracedRounds int)
}

// sample accumulates one run's measurements.
type sample struct {
	setups []float64 // one per round, seconds
	// Every round repeats the same requests and throughput phases; the
	// samples of all rounds are pooled, so a percentile is one over
	// every request the run made.
	latency           []float64 // per request, seconds
	rate              []float64 // per throughput phase, jobs per second
	attempted, failed int
	failures          []string
	traced            bool // the current round is traced
}

// request records the latency of one request.
func (s *sample) request(seconds float64) { s.latency = append(s.latency, seconds) }

// drained records one throughput phase: jobs completed in seconds.
func (s *sample) drained(jobs int, seconds float64) {
	s.rate = append(s.rate, float64(jobs)/seconds)
}

// fail counts one failed operation and keeps the first reasons.
func (s *sample) fail(format string, args ...interface{}) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundSeconds is the nominal length of a workload's round on a 2-core
// host. A run makes a fixed number of rounds, so the work measured does
// not depend on how fast the host happened to be.
var roundSeconds = map[string]float64{"transcode": 10, "grid": 10, "fleet": 6}

// rounds returns how many rounds a run makes: about --seconds of
// rounds, at least two set-up samples, and in a traced run an
// untraced round on each side of a traced one.
func rounds(cfg config) int {
	n := int(cfg.seconds/roundSeconds[cfg.workload] + 0.5)
	if cfg.trace {
		return max(n, 3)
	}
	return max(n, 2)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var writeDigests string
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "about how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces, layer tables and scratch files")
	fs.StringVar(&writeDigests, "write-digests", "", "regenerate the golden digest files in this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if writeDigests != "" {
		if err := writeGolden(writeDigests); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := runConfig(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// newWorkload builds the named workload.
func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "transcode":
		return newTranscode(cfg)
	case "grid":
		return newGrid(cfg), nil
	case "fleet":
		return newFleet(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string { return []string{"transcode", "grid", "fleet"} }

// runConfig runs one workload and assembles its result.
func runConfig(cfg config, stdout, stderr io.Writer) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	st := newStamp(cfg)
	stampLine, err := json.Marshal(map[string]interface{}{"stamp": st})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(stampLine))

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	s := &sample{}
	var measured = map[bool][]float64{} // timed-phase wall per round, keyed by traced
	var tracedWall float64
	for i := 0; i < rounds(cfg); i++ {
		s.traced = cfg.trace && i%2 == 1
		r := (*recorder)(nil)
		if s.traced {
			r = rec
		}
		// Every round starts from a collected heap, so garbage left by
		// the previous round is not charged to this one's set-up.
		runtime.GC()
		t0 := time.Now()
		root := r.start("round", 0, fmt.Sprintf("round%d", i))
		sp := r.start("setup", root, "")
		if err := w.setUp(r, sp); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		r.end(sp)
		t1, c1 := time.Now(), cpuSeconds()
		sp = r.start("measure", root, "")
		if err := w.measure(r, sp, s); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		r.end(sp)
		t2, c2 := time.Now(), cpuSeconds()
		sp = r.start("teardown", root, "")
		if err := w.tearDown(r, sp, s); err != nil {
			return nil, fmt.Errorf("%s tear-down: %w", cfg.workload, err)
		}
		r.end(sp)
		r.end(root)
		fmt.Fprintf(stderr, "perfbench: round %d traced=%v setup %.3fs measure %.3fs (cpu %.3fs)\n",
			i, s.traced, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), c2-c1)
		s.setups = append(s.setups, t1.Sub(t0).Seconds())
		measured[s.traced] = append(measured[s.traced], t2.Sub(t1).Seconds())
		if s.traced {
			tracedWall += time.Since(t0).Seconds()
		}
	}
	for _, f := range s.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	res := &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	if !cfg.trace {
		for name, v := range endToEnd(s) {
			res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
		}
		return res, nil
	}
	layers, err := perLayer(cfg, w, s, rec, tracedWall, measured, st)
	if err != nil {
		return nil, err
	}
	for name, v := range layers {
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(s *sample) map[string]float64 {
	return map[string]float64{
		"setup_s":        median(s.setups),
		"peak_rss_mb":    peakRSSMB(),
		"latency_p50_s":  median(s.latency),
		"latency_tail_s": tail(s.latency),
		"jobs_per_s":     median(s.rate),
	}
}

// perLayer computes the per-layer metrics of a traced run and writes
// its Chrome trace and self-time table.
func perLayer(cfg config, w workload, s *sample, rec *recorder, tracedWall float64,
	measured map[bool][]float64, st stamp) (map[string]float64, error) {
	spans := rec.closed()
	tree := treeOf(spans, "round")
	rounds := float64(len(measured[true]))
	m := map[string]float64{}
	for _, name := range perLayerNames() {
		m[name] = 0
	}
	var layerSelf float64
	for name, self := range selfTimes(tree) {
		if !strings.Contains(name, ".") {
			continue // round, setup, measure, teardown and job containers
		}
		key := name + "_s"
		if _, ok := m[key]; !ok {
			return nil, fmt.Errorf("span %q has no per-layer metric", name)
		}
		m[key] = self / rounds
		layerSelf += self
	}
	w.layers(m, len(measured[true]))
	m["other_s"] = (tracedWall - layerSelf) / rounds
	m["trace_overhead_ratio"] = median(measured[true])/median(measured[false]) - 1
	m["failed_ratio"] = float64(s.failed) / float64(s.attempted)

	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return nil, err
	}
	if err := writeChromeTrace(f, "perfbench "+cfg.workload, rec.t0, spans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := checkTraceFile(base+".trace.json", len(spans)); err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s seed %d: %d traced round(s), wall %.6f s per round\n", cfg.workload, cfg.seed, len(measured[true]), tracedWall/rounds)
	stampJSON, _ := json.Marshal(st) // a struct of strings and numbers always marshals
	fmt.Fprintf(&b, "# stamp %s\n", stampJSON)
	if err := writeLayerTable(&b, layerTable(tree), tracedWall); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".layers.txt", []byte(b.String()), 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

// unitOf returns a metric's unit, from its name.
func unitOf(name string) string {
	switch {
	case name == "peak_rss_mb":
		return "MB"
	case name == "jobs_per_s":
		return "jobs/s"
	case strings.HasSuffix(name, "_mpx_s"):
		return "Mpx/s"
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "_s."):
		return "s"
	case strings.HasSuffix(name, "_ratio") || strings.Contains(name, ".latency_share."):
		return "1"
	case name == "cas.bytes_written":
		return "B"
	case name == "codec.bits_output":
		return "bit"
	}
	return "count"
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// stamp records what a result was measured on: numbers from another
// host, core count or setting are not comparable.
type stamp struct {
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	FleetPoll  string  `json:"fleet_poll"`
}

func newStamp(cfg config) stamp {
	return stamp{
		Commit:     commitOf("."),
		SourceHash: sourceHash("."),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		FleetPoll:  fleetPoll.String(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// perLayerNames lists every per-layer metric, in report order.
func perLayerNames() []string {
	names := []string{
		"video.synth_s",
		"codec.encode_s",
	}
	for _, c := range transcodeConfigs() {
		names = append(names, "codec.encode_s."+c.name)
	}
	for _, k := range kernelNames() {
		names = append(names, "codec.ops."+k)
	}
	names = append(names,
		"codec.mb_total", "codec.bits_output", "codec.encode_mpx_s",
		"codec.decode_s", "codec.decode_mpx_s",
		"metrics.quality_s",
		"bench.check_s", "bench.pace_s",
	)
	for _, st := range gridStudies() {
		names = append(names, "harness."+st.name+"_s")
	}
	names = append(names, "harness.encodes", "harness.pool_busy_ratio")
	for _, memo := range memoNames {
		names = append(names, "harness.memo."+memo+".hits", "harness.memo."+memo+".misses")
	}
	names = append(names,
		"cas.open_s", "cas.mem_hits", "cas.disk_hits", "cas.misses", "cas.bytes_written",
		"fleet.start_s", "fleet.warmup_s", "fleet.submit_s", "fleet.drain_s", "fleet.burst_s", "fleet.stop_s",
		"fleet.dedup_ratio",
		"fleet.submit_rtt_p50_s", "fleet.lease_rtt_p50_s", "fleet.complete_rtt_p50_s",
		"fleet.queue_wait_p50_s", "fleet.queue_wait_tail_s", "fleet.exec_p50_s",
		"fleet.leases", "fleet.idle_polls", "fleet.gen_lag_max_s",
		"fleet.slot_busy_ratio",
		"fleet.latency_share.submit", "fleet.latency_share.follow",
		"fleet.latency_share.queue", "fleet.latency_share.exec",
		"other_s", "trace_overhead_ratio", "failed_ratio",
	)
	return names
}
