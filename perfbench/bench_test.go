package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"vbench/internal/fleet"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		v := tail(xs)
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if beyond(n, 90) < tailBeyond {
			if v != median(xs) {
				t.Fatalf("n=%d: tail %v, want the median %v: p90 has only %d beyond", n, v, median(xs), beyond(n, 90))
			}
			continue
		}
		if v != percentile(xs, 90) || above < tailBeyond {
			t.Fatalf("n=%d: tail %v has %d samples above it, want the p90 with at least %d", n, v, above, tailBeyond)
		}
	}
	for _, c := range []struct{ n, want int }{{99, 9}, {100, 10}, {1000, 100}} {
		if got := beyond(c.n, 90); got != c.want {
			t.Errorf("beyond(%d, 90) = %d, want %d", c.n, got, c.want)
		}
	}
	// With distinct samples the reported value has exactly the
	// promised number of samples above it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v := tail(xs)
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if v != 90 || above != 10 {
		t.Errorf("tail of 1..100 = %v with %d above, want 90 with 10 above", v, above)
	}
	if got := tail([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("tail of four samples = %v, want their median 2.5", got)
	}
}

// fakeClock advances only when the generator sleeps or a send takes
// time. Every sleep overshoots by late, as an idle runtime's timers do.
type fakeClock struct {
	now  time.Time
	late time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d + c.late) }

func TestOpenLoopTimesFromDueAndReportsLag(t *testing.T) {
	start := time.Unix(1000, 0)
	ms := time.Millisecond
	c := &fakeClock{now: start, late: ms / 2}
	cost := []time.Duration{ms, ms, 25 * ms, ms, ms}
	done := make([]time.Time, len(cost))
	from, lag, err := openLoop(c, len(cost), 100, func(i int) error {
		c.now = c.now.Add(cost[i]) // the send blocks the generator
		done[i] = c.now
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Requests 1 and 2 are slept for and timed from when they are sent,
	// half a millisecond after their due times at 10 and 20 ms. Request
	// 2 returns at 45.5 ms, so requests 3 and 4, due at 30 and 40 ms,
	// find the generator behind and are timed from their due times.
	want := []time.Duration{0, 10*ms + ms/2, 20*ms + ms/2, 30 * ms, 40 * ms}
	for i, f := range from {
		if !f.Equal(start.Add(want[i])) {
			t.Errorf("request %d timed from %v, want %v", i, f.Sub(start), want[i])
		}
	}
	// Request 3 goes out at 45.5 ms, 15.5 ms after its due time.
	if lag != 15*ms+ms/2 {
		t.Errorf("lag %v, want 15.5ms", lag)
	}
	lat := since(from, done)
	wantLat := []float64{0.001, 0.001, 0.025, 0.0165, 0.0075}
	for i := range wantLat {
		if d := lat[i] - wantLat[i]; d > 1e-9 || d < -1e-9 {
			t.Errorf("request %d latency %v, want %v", i, lat[i], wantLat[i])
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "round", id: 1, start: 0, end: 100 * ms},
		{name: "a.first", id: 2, parent: 1, start: 10 * ms, end: 30 * ms},
		{name: "a.second", id: 3, parent: 1, start: 20 * ms, end: 50 * ms}, // overlaps a.first
		{name: "a.late", id: 4, parent: 1, start: 90 * ms, end: 120 * ms},  // runs past the parent
		{name: "b.inner", id: 5, parent: 3, start: 25 * ms, end: 35 * ms},
		{name: "worker", id: 6, thread: 1, start: 0, end: 500 * ms}, // another thread's root
	}
	self := selfTimes(treeOf(spans, "round"))
	want := map[string]float64{
		"round":    0.050, // 100 ms minus the union 10-50 and 90-100
		"a.first":  0.020,
		"a.second": 0.020, // 30 ms minus the 10 ms inner child
		"a.late":   0.030,
		"b.inner":  0.010,
	}
	for name, w := range want {
		if d := self[name] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
	if _, ok := self["worker"]; ok {
		t.Error("a span of another thread's tree was counted in the round's self times")
	}
}

func TestInjectedMismatchRaisesFailedRatio(t *testing.T) {
	run := func(golden map[string]string) *sample {
		tc, err := newTranscode(config{seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tc.clips = tc.clips[:1] // cat, the smallest clip
		tc.jobs = transcodeJobs(3, 1, len(tc.cfgs))[:4]
		if golden != nil {
			tc.golden = golden
		}
		if err := tc.setUp(nil, 0); err != nil {
			t.Fatal(err)
		}
		s := &sample{}
		if err := tc.measure(nil, 0, s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if s := run(nil); s.failed != 0 || s.attempted != 4 {
		t.Fatalf("golden digests: %d of %d failed: %v", s.failed, s.attempted, s.failures)
	}
	bad := map[string]string{}
	for k, v := range parseDigestsOrDie(t) {
		bad[k] = v
	}
	tc, _ := newTranscode(config{seed: 3})
	job := transcodeJobs(3, 1, len(tc.cfgs))[0]
	bad[job.key(tc.clips, tc.cfgs)] = "0000"
	s := run(bad)
	if s.failed != 1 || float64(s.failed)/float64(s.attempted) != 0.25 {
		t.Fatalf("one corrupted digest: %d of %d failed, want 1 of 4", s.failed, s.attempted)
	}

	// The other workloads' checks catch their mismatches too.
	if err := checkGrid([]string{"t"}, 636, tablesDigest([]string{"t"}), 636); err != nil {
		t.Errorf("matching grid reported %v", err)
	}
	if err := checkGrid([]string{"t"}, 635, tablesDigest([]string{"t"}), 636); err == nil {
		t.Error("grid with a missing encode passed")
	}
	if err := checkGrid([]string{"u"}, 636, tablesDigest([]string{"t"}), 636); err == nil {
		t.Error("grid with a changed table passed")
	}
	spec := fleet.JobSpec{Clip: "cat", Encoder: "x264-medium", Scale: 16, Duration: 0.2, QP: 26}
	res := &fleet.Result{Bytes: 100, PSNR: 40}
	first := map[fleet.JobSpec]*fleet.Result{}
	if err := checkFleetJob(fleet.Job{ID: 1, Spec: spec, State: fleet.Done, Result: res, Completions: 1}, 1, first); err != nil {
		t.Errorf("good fleet job reported %v", err)
	}
	other := &fleet.Result{Bytes: 101, PSNR: 40}
	if err := checkFleetJob(fleet.Job{ID: 2, Spec: spec, State: fleet.Done, Result: other, Completions: 1}, 1, first); err == nil {
		t.Error("a job whose result differs from its spec's first result passed")
	}
	if err := checkFleetJob(fleet.Job{ID: 3, Spec: spec, State: fleet.Done, Result: res, Completions: 1}, 2, first); err == nil {
		t.Error("a job completed twice passed")
	}
}

func parseDigestsOrDie(t *testing.T) map[string]string {
	t.Helper()
	d, err := parseDigests(transcodeGolden)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSameSeedSameJobLists(t *testing.T) {
	a, b := transcodeJobs(7, 15, 5), transcodeJobs(7, 15, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two transcode job lists")
	}
	if reflect.DeepEqual(a, transcodeJobs(8, 15, 5)) {
		t.Error("seeds 7 and 8 gave the same transcode job list")
	}
	if len(a) < 100 {
		t.Errorf("%d transcode jobs, want at least 100", len(a))
	}
	pairs := map[[2]int]int{}
	for _, j := range a {
		pairs[[2]int{j.clip, j.config}]++
	}
	if len(pairs) != 75 {
		t.Errorf("%d (clip, config) pairs, want 75", len(pairs))
	}
	for p, n := range pairs {
		if n != transcodeRepeats {
			t.Errorf("pair %v appears %d times, want %d", p, n, transcodeRepeats)
		}
	}

	f1, f2 := newFleet(config{seed: 7}), newFleet(config{seed: 7})
	if !reflect.DeepEqual(f1.open, f2.open) || !reflect.DeepEqual(f1.bursts, f2.bursts) {
		t.Fatal("the same seed gave two fleet request lists")
	}
	if g1, g2 := newGrid(config{seed: 7}), newGrid(config{seed: 7}); !reflect.DeepEqual(g1.order, g2.order) {
		t.Fatal("the same seed gave two grid study orders")
	}
	reqs := popularRequests(7, 60, 300)
	count := map[int]int{}
	for _, r := range reqs {
		count[r]++
	}
	if len(reqs) != 300 || len(count) != 60 {
		t.Fatalf("%d requests over %d entries, want 300 over all 60", len(reqs), len(count))
	}
	if !reflect.DeepEqual(reqs, popularRequests(7, 60, 300)) {
		t.Fatal("the same seed gave two popularity draws")
	}
	top := 0
	for _, n := range count {
		top = max(top, n)
	}
	if top < 40 {
		t.Errorf("most popular entry requested %d times; the popularity law should concentrate repeats", top)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var layers []string
	for _, m := range doc.PerLayer {
		layers = append(layers, m.Name)
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q reported", m.Name, m.Unit, u)
		}
	}
	if !reflect.DeepEqual(layers, perLayerNames()) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the reported\n%v", layers, perLayerNames())
	}
	e2e := endToEnd(&sample{})
	if len(e2e) != len(doc.EndToEnd) {
		t.Errorf("%d end-to-end metrics reported, %d in BENCHMARK.json", len(e2e), len(doc.EndToEnd))
	}
	for _, m := range doc.EndToEnd {
		if _, ok := e2e[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is not reported", m.Name)
		}
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q reported", m.Name, m.Unit, u)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb discard
	if code := run([]string{"--workload", "nope", "--out", t.TempDir()}, &out, &errb); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
