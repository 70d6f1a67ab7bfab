package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"vbench/internal/cas"
	"vbench/internal/fleet"
	"vbench/internal/perf"
	"vbench/internal/telemetry"
)

// fleetPoll is the worker's idle re-poll interval, the shortest wait
// the runtime's timers resolve and about what a fresh job takes to
// encode. The shipped 200 ms default would make a uniform wait over
// the poll period nearly all of a fresh job's latency. The idle polls
// are still a cost and are reported as fleet.idle_polls.
const fleetPoll = 1 * time.Millisecond

// Fleet load: an open-loop phase at a fixed rate, then bursts each
// submitted at once and drained before the next. In every phase two
// thirds of the requests are distinct encodes and a third repeat them
// by popularity, so a burst's drain rate is the capacity for the open
// loop's mix. fleetRate is about a fifth of the capacity measured
// that way on a 2-core host (README.md, "Fleet load"), and requests
// are evenly spaced: the median and p90 request is one fresh job's
// trip through submit, idle poll, lease, encode, cas write and
// completion, not the luck of jobs queueing behind each other. At a
// fifth of the requests fresh, the median was a cache hit, a 0.2 ms
// loopback round trip whose wake-ups moved by a third from run to run
// on a shared host.
const (
	fleetRate          = 240.0 // open-loop requests per second
	fleetOpenRequests  = 1080
	fleetBurstRequests = 540 // per burst
	fleetWaitLimit     = 90 * time.Second
)

var (
	// The open-loop catalogue: 15 clips x 4 encoders x 12 QPs = 720
	// distinct encodes, repeated by popularity to 1080 requests.
	fleetOpenQPs = []int{14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}
	// One catalogue per burst, disjoint from every other phase's, with
	// the QPs interleaved so the bursts cost the same.
	fleetBurstQPs = [][]int{{26, 28, 30, 32, 34, 36}, {27, 29, 31, 33, 35, 37}}
	// Warm-up jobs in set-up: every clip and encoder, at QPs no
	// measured request uses, so the timed phases start with warm
	// encoders and frame pools for every clip geometry.
	fleetWarmQPs = []int{39, 40, 41, 42, 43, 44}
)

// fleetBench is the open-loop fleet workload: an in-process loopback
// master over httptest with a cas.Store in a temp directory, one
// worker with nproc slots, and one load-generating client.
type fleetBench struct {
	out     string
	open    []fleet.JobSpec
	bursts  [][]fleet.JobSpec
	warm    []fleet.JobSpec
	digests map[string]string // spec -> bitstream sha256, from the first round

	dir     string
	store   *cas.Store
	q       *fleet.Queue
	ts      *httptest.Server
	client  *http.Client
	obs     *observer
	rpc     *timedTransport
	cancel  context.CancelFunc
	exited  chan struct{}
	stats0  fleet.Stats // queue and store counters after warm-up
	cas0    cas.Stats
	openIDs []int       // the round's open-loop job ids
	from    []time.Time // the times they are timed from (see openLoop)
	ids     []int       // every measured job id of the round
	genLag  time.Duration

	// Traced-round accumulators.
	submitRTT             []float64
	leaseRTT, completeRTT []float64
	waits, execs          []float64
	share                 latencyShare
	busy, capacity        float64 // slot-seconds busy and available in the open loop
	leases, idlePolls     int64
	dedupHits, submitted  int64
	casStats              cas.Stats
	ops                   [perf.NumKernels]int64
	mbTotal, bitsOut      int64
	genLagMax             float64
}

func newFleet(cfg config) *fleetBench {
	f := &fleetBench{out: cfg.out}
	open := fleetCatalogue(fleetOpenQPs)
	for _, i := range popularRequests(cfg.seed, len(open), fleetOpenRequests) {
		f.open = append(f.open, open[i])
	}
	for b, qps := range fleetBurstQPs {
		cat := fleetCatalogue(qps)
		// A burst arrives all at once, so it is submitted in catalogue
		// order: in a seed's order the drain time would swing with
		// whether a slow encode happened to be leased last.
		reqs := popularRequests(cfg.seed+int64(b)+1, len(cat), fleetBurstRequests)
		sort.Ints(reqs)
		var burst []fleet.JobSpec
		for _, i := range reqs {
			burst = append(burst, cat[i])
		}
		f.bursts = append(f.bursts, burst)
	}
	f.warm = fleetCatalogue(fleetWarmQPs)
	return f
}

// setUp opens the store, starts the master and the worker, and runs
// the warm-up jobs through them.
func (f *fleetBench) setUp(rec *recorder, parent int) error {
	sp := rec.start("cas.open", parent, "")
	dir, err := os.MkdirTemp(f.out, "fleet-")
	if err == nil {
		f.dir = dir
		f.store, err = cas.Open(filepath.Join(dir, "cas"), telemetry.NewRegistry())
	}
	rec.end(sp)
	if err != nil {
		return err
	}

	sp = rec.start("fleet.start", parent, "")
	f.obs = newObserver(rec)
	f.q = fleet.NewQueue(fleet.Options{
		Metrics:      telemetry.NewRegistry(),
		Cache:        f.store,
		OnTransition: f.obs.transition,
	})
	f.ts = httptest.NewServer(masterSpans(fleet.NewServer(f.q).Handler(), rec))
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 30 * time.Second}
	f.rpc = &timedTransport{base: &http.Transport{MaxIdleConnsPerHost: 4}, rec: rec}
	w, err := fleet.NewWorker(fleet.WorkerOptions{
		Master:      f.ts.URL,
		ID:          "w1",
		Concurrency: runtime.NumCPU(),
		Poll:        fleetPoll,
		Client:      &http.Client{Transport: f.rpc, Timeout: 30 * time.Second},
		Metrics:     telemetry.NewRegistry(),
		Cache:       f.store,
	})
	if err != nil {
		rec.end(sp)
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel, f.exited = cancel, make(chan struct{})
	go func() {
		defer close(f.exited)
		_ = w.Run(ctx) // Run returns nil once ctx is canceled and in-flight jobs drained
	}()
	rec.end(sp)

	sp = rec.start("fleet.warmup", parent, "")
	defer rec.end(sp)
	ids, err := f.submit(f.warm)
	if err != nil {
		return err
	}
	if _, err = f.obs.waitDone(ids, fleetWaitLimit); err != nil {
		return err
	}
	// The round's counters start here: the warm-up is not measured.
	f.stats0, f.cas0 = f.q.Stats(), f.store.Stats()
	f.rpc.reset()
	return nil
}

// submit posts specs in one request and returns their job ids.
func (f *fleetBench) submit(specs []fleet.JobSpec) ([]int, error) {
	body, err := json.Marshal(fleet.SubmitRequest{Jobs: specs})
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Post(f.ts.URL+"/api/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("submit: %s", resp.Status)
	}
	var out fleet.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if len(out.IDs) != len(specs) {
		return nil, fmt.Errorf("submit: %d ids for %d jobs", len(out.IDs), len(specs))
	}
	return out.IDs, nil
}

// measure runs the open-loop phase and then the bursts.
func (f *fleetBench) measure(rec *recorder, parent int, s *sample) error {
	f.openIDs = make([]int, len(f.open))
	from, lag, err := openLoop(pacer{rec, parent}, len(f.open), fleetRate, func(i int) error {
		sp := rec.start("fleet.submit", parent, fmt.Sprintf("req%d", i))
		t0 := time.Now()
		ids, err := f.submit(f.open[i : i+1])
		rtt := time.Since(t0)
		rec.end(sp)
		if err != nil {
			return err
		}
		f.openIDs[i] = ids[0]
		if s.traced {
			f.submitRTT = append(f.submitRTT, rtt.Seconds())
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.from, f.genLag = from, lag
	sp := rec.start("fleet.drain", parent, "")
	doneAt, err := f.obs.waitDone(f.openIDs, fleetWaitLimit)
	rec.end(sp)
	if err != nil {
		return err
	}
	for _, l := range since(from, doneAt) {
		s.request(l)
	}

	f.ids = append(f.ids[:0], f.openIDs...)
	for b, burst := range f.bursts {
		sp = rec.start("fleet.burst", parent, fmt.Sprintf("burst%d", b))
		b0 := time.Now()
		ids, err := f.submit(burst)
		if err == nil {
			doneAt, err = f.obs.waitDone(ids, fleetWaitLimit)
		}
		rec.end(sp)
		if err != nil {
			return err
		}
		last := b0
		for _, t := range doneAt {
			if t.After(last) {
				last = t
			}
		}
		s.drained(len(ids), last.Sub(b0).Seconds())
		f.ids = append(f.ids, ids...)
	}
	s.attempted += len(f.ids)
	return nil
}

// clock is the open-loop generator's time source; tests fake it.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// pacer is the wall clock, recording each wait for a due time as a
// bench.pace span.
type pacer struct {
	rec    *recorder
	parent int
}

func (pacer) Now() time.Time { return time.Now() }

func (p pacer) Sleep(d time.Duration) {
	sp := p.rec.start("bench.pace", p.parent, "")
	time.Sleep(d)
	p.rec.end(sp)
}

// openLoop sends n requests at rate per second; request i is due at
// start + i/rate. When the generator is ahead it sleeps until the due
// time and times the request from when it is sent: a timer that fires
// late (the runtime rounds an idle wait up to the next millisecond) is
// the generator's lag, not the system's. When it has fallen behind,
// because an earlier send was slow, it sends at once and times the
// request from its due time, so a stall counts against every request
// it delays. It returns the time each request is timed from and the
// generator's largest lag behind a due time, timer lateness included.
func openLoop(c clock, n int, rate float64, send func(i int) error) ([]time.Time, time.Duration, error) {
	start := c.Now()
	from := make([]time.Time, n)
	var lag time.Duration
	for i := range from {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		from[i] = due
		if d := due.Sub(c.Now()); d > 0 {
			c.Sleep(d)
			from[i] = c.Now()
		}
		lag = max(lag, c.Now().Sub(due))
		if err := send(i); err != nil {
			return nil, 0, err
		}
	}
	return from, lag, nil
}

// since returns each request's latency, from its start to done, seconds.
func since(from, done []time.Time) []float64 {
	out := make([]float64, len(from))
	for i := range from {
		out[i] = done[i].Sub(from[i]).Seconds()
	}
	return out
}

// tearDown stops the worker and the master, checks every measured
// job, and removes the store.
func (f *fleetBench) tearDown(rec *recorder, parent int, s *sample) error {
	sp := rec.start("fleet.stop", parent, "")
	f.cancel()
	<-f.exited
	f.ts.Close()
	f.client.CloseIdleConnections()
	rec.end(sp)

	stats := f.q.Stats()
	casStats := f.store.Stats()
	sp = rec.start("bench.check", parent, "")
	outcomes := f.check(s)
	rec.end(sp)
	if s.traced {
		f.leaseRTT = append(f.leaseRTT, f.rpc.lease...)
		f.completeRTT = append(f.completeRTT, f.rpc.complete...)
		f.idlePolls += f.rpc.idle
		w, x := f.obs.times(f.openIDs)
		f.waits = append(f.waits, w...)
		f.execs = append(f.execs, x...)
		busy, span := f.obs.split(f.openIDs, f.from, &f.share)
		f.busy += busy
		f.capacity += span * float64(runtime.NumCPU())
		f.leases += int64(stats.Leases - f.stats0.Leases)
		f.dedupHits += int64(stats.CacheDedupHits - f.stats0.CacheDedupHits)
		f.submitted += int64(stats.Submitted - f.stats0.Submitted)
		f.casStats.MemHits += casStats.MemHits - f.cas0.MemHits
		f.casStats.DiskHits += casStats.DiskHits - f.cas0.DiskHits
		f.casStats.Misses += casStats.Misses - f.cas0.Misses
		f.casStats.BytesWritten += casStats.BytesWritten - f.cas0.BytesWritten
		for _, o := range outcomes {
			for k := range f.ops {
				f.ops[k] += o.Counters.Ops[k]
			}
			f.mbTotal += o.Counters.MBTotal
			f.bitsOut += o.Counters.BitsOutput
		}
		f.genLagMax = max(f.genLagMax, f.genLag.Seconds())
	}
	return os.RemoveAll(f.dir)
}

// check verifies the round's jobs: each completed exactly once and
// none failed, every job of a spec — dedup followers and cache hits
// included — carries its leader's result, and each distinct encode's
// bitstream hashes as in the run's first round. It returns the
// distinct encodes' stored outcomes.
func (f *fleetBench) check(s *sample) []*cas.Outcome {
	if st := f.q.Stats(); st.Failed != 0 {
		s.fail("fleet: Stats.Failed = %d", st.Failed)
	}
	jobs := f.q.Jobs()
	byID := map[int]fleet.Job{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	first := map[fleet.JobSpec]*fleet.Result{}
	var outcomes []*cas.Outcome
	if f.digests == nil {
		f.digests = map[string]string{}
	}
	for _, id := range f.ids {
		j := byID[id]
		if err := checkFleetJob(j, f.obs.doneCount(id), first); err != nil {
			s.fail("fleet job %d: %v", id, err)
			continue
		}
		if j.DedupOf != 0 && !sameResult(*j.Result, *byID[j.DedupOf].Result) {
			s.fail("fleet job %d: follower result differs from leader %d", id, j.DedupOf)
			continue
		}
		if first[j.Spec] != j.Result {
			continue // the spec's digest was checked with its first job
		}
		key, ok := fleet.SpecCacheKey(j.Spec)
		o, found := f.store.Get(key)
		if !ok || !found {
			s.fail("fleet job %d: no stored outcome", id)
			continue
		}
		outcomes = append(outcomes, o)
		sum := sha256.Sum256(o.Bitstream)
		d := hex.EncodeToString(sum[:])
		name := fmt.Sprintf("%s/%s/%d", j.Spec.Clip, j.Spec.Encoder, j.Spec.QP)
		if want, seen := f.digests[name]; seen && want != d {
			s.fail("fleet job %d: bitstream sha256 %s, earlier round %s", id, d, want)
		}
		f.digests[name] = d
	}
	return outcomes
}

// checkFleetJob checks one job: done, completed exactly once, and its
// result equal to the first result seen for its spec.
func checkFleetJob(j fleet.Job, doneTransitions int, first map[fleet.JobSpec]*fleet.Result) error {
	if j.State != fleet.Done || j.Result == nil {
		return fmt.Errorf("state %s", j.State)
	}
	if doneTransitions != 1 || j.Completions != 1 {
		return fmt.Errorf("%d done transitions, %d completions", doneTransitions, j.Completions)
	}
	if r, ok := first[j.Spec]; ok {
		if !sameResult(*r, *j.Result) {
			return fmt.Errorf("result %+v differs from %+v of the same spec", *j.Result, *r)
		}
		return nil
	}
	first[j.Spec] = j.Result
	return nil
}

// sameResult compares the encode outputs of two results, ignoring who
// produced them.
func sameResult(a, b fleet.Result) bool {
	return a.Bytes == b.Bytes && a.PSNR == b.PSNR && a.Seconds == b.Seconds && a.InputBytes == b.InputBytes
}

func (f *fleetBench) layers(m map[string]float64, tracedRounds int) {
	r := float64(tracedRounds)
	m["fleet.submit_rtt_p50_s"] = median(f.submitRTT)
	m["fleet.lease_rtt_p50_s"] = median(f.leaseRTT)
	m["fleet.complete_rtt_p50_s"] = median(f.completeRTT)
	m["fleet.queue_wait_p50_s"] = median(f.waits)
	m["fleet.queue_wait_tail_s"] = tail(f.waits)
	m["fleet.exec_p50_s"] = median(f.execs)
	m["fleet.leases"] = float64(f.leases) / r
	m["fleet.idle_polls"] = float64(f.idlePolls) / r
	m["fleet.gen_lag_max_s"] = f.genLagMax
	if f.capacity > 0 {
		m["fleet.slot_busy_ratio"] = f.busy / f.capacity
	}
	if total := f.share.total(); total > 0 {
		m["fleet.latency_share.submit"] = f.share.submit / total
		m["fleet.latency_share.follow"] = f.share.follow / total
		m["fleet.latency_share.queue"] = f.share.queue / total
		m["fleet.latency_share.exec"] = f.share.exec / total
	}
	if f.submitted > 0 {
		m["fleet.dedup_ratio"] = float64(f.dedupHits) / float64(f.submitted)
	}
	m["cas.mem_hits"] = float64(f.casStats.MemHits) / r
	m["cas.disk_hits"] = float64(f.casStats.DiskHits) / r
	m["cas.misses"] = float64(f.casStats.Misses) / r
	m["cas.bytes_written"] = float64(f.casStats.BytesWritten) / r
	for k, n := range f.ops {
		m["codec.ops."+perf.Kernel(k).String()] = float64(n) / r
	}
	m["codec.mb_total"] = float64(f.mbTotal) / r
	m["codec.bits_output"] = float64(f.bitsOut) / r
}

// observer follows job state transitions through
// fleet.Options.OnTransition. It runs under the queue lock, so it only
// records times and wakes waiters.
type observer struct {
	mu        sync.Mutex
	cond      *sync.Cond
	rec       *recorder
	submitted map[int]time.Time
	leased    map[int]time.Time
	doneAt    map[int]time.Time
	dones     map[int]int
	wait      map[int]float64 // submitted -> leased, seconds
	exec      map[int]float64 // leased -> done, seconds
}

func newObserver(rec *recorder) *observer {
	o := &observer{rec: rec, submitted: map[int]time.Time{}, leased: map[int]time.Time{},
		doneAt: map[int]time.Time{}, dones: map[int]int{}, wait: map[int]float64{}, exec: map[int]float64{}}
	o.cond = sync.NewCond(&o.mu)
	return o
}

func (o *observer) transition(j fleet.Job, from, to, reason string) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case from == "none":
		o.submitted[j.ID] = now
	case to == "leased":
		o.leased[j.ID] = now
		o.wait[j.ID] = now.Sub(o.submitted[j.ID]).Seconds()
		o.rec.add(2, "fleet.queue_wait", 0, fleet.JobTraceID(j.ID), o.submitted[j.ID], now)
	case to == "done":
		o.doneAt[j.ID] = now
		o.dones[j.ID]++
		if t, ok := o.leased[j.ID]; ok {
			o.exec[j.ID] = now.Sub(t).Seconds()
			o.rec.add(3, "fleet.exec", 0, fleet.JobTraceID(j.ID), t, now)
		}
		o.cond.Broadcast()
	case to == "failed":
		o.dones[j.ID] = -1
		o.cond.Broadcast()
	}
}

// waitDone blocks until every id is done and returns the done times,
// in ids order.
func (o *observer) waitDone(ids []int, limit time.Duration) ([]time.Time, error) {
	timer := time.AfterFunc(limit, func() {
		o.mu.Lock()
		o.cond.Broadcast()
		o.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(limit)
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, id := range ids {
		for o.dones[id] == 0 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("job %d not done after %v", id, limit)
			}
			o.cond.Wait()
		}
		if o.dones[id] < 0 {
			return nil, fmt.Errorf("job %d failed", id)
		}
	}
	out := make([]time.Time, len(ids))
	for i, id := range ids {
		out[i] = o.doneAt[id]
	}
	return out, nil
}

// times returns the queue waits and execution times of the leased
// jobs among ids.
func (o *observer) times(ids []int) (waits, execs []float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, id := range ids {
		if w, ok := o.wait[id]; ok {
			waits = append(waits, w)
		}
		if x, ok := o.exec[id]; ok {
			execs = append(execs, x)
		}
	}
	return waits, execs
}

// latencyShare splits summed open-loop latency into where it was
// spent: submit is the request's start (see openLoop) to the master's
// submission (backlog at the client and the submit round trip), follow
// is submission to done for jobs never leased (cache hits settle at
// submission, dedup followers wait for their leader), queue is
// submission to lease for leased jobs (idle poll, lease round trip)
// and exec is lease to done (clip synthesis, encode, completion round
// trip).
type latencyShare struct{ submit, follow, queue, exec float64 }

func (l latencyShare) total() float64 { return l.submit + l.follow + l.queue + l.exec }

// split adds the latency of the jobs ids, timed from from, to share,
// and returns the slot-seconds their executions kept the worker busy
// and the span from the first start to the last done.
func (o *observer) split(ids []int, from []time.Time, share *latencyShare) (busy, span float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var last time.Time
	for i, id := range ids {
		sub, done := o.submitted[id], o.doneAt[id]
		share.submit += sub.Sub(from[i]).Seconds()
		if lt, ok := o.leased[id]; ok {
			share.queue += lt.Sub(sub).Seconds()
			share.exec += done.Sub(lt).Seconds()
			busy += done.Sub(lt).Seconds()
		} else {
			share.follow += done.Sub(sub).Seconds()
		}
		if done.After(last) {
			last = done
		}
	}
	if len(from) > 0 {
		span = last.Sub(from[0]).Seconds()
	}
	return busy, span
}

func (o *observer) doneCount(id int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.dones[id]
}

// timedTransport times the worker's calls to the master and counts
// idle polls: lease responses that carry no job (a leased job comes
// with its trace-id header).
type timedTransport struct {
	base http.RoundTripper
	rec  *recorder

	mu              sync.Mutex
	lease, complete []float64
	idle            int64
}

// reset forgets the calls made so far.
func (t *timedTransport) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lease, t.complete, t.idle = nil, nil, 0
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.rec.startOn(1, "worker.rpc "+req.URL.Path, 0, req.Header.Get(fleet.HeaderTraceID))
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(t0).Seconds()
	t.rec.end(sp)
	if err != nil {
		return resp, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch req.URL.Path {
	case "/api/v1/lease":
		t.lease = append(t.lease, d)
		if resp.Header.Get(fleet.HeaderTraceID) == "" {
			t.idle++
		}
	case "/api/v1/complete":
		t.complete = append(t.complete, d)
	}
	return resp, nil
}

// masterSpans wraps the master's handler with a span per request when
// the round is traced.
func masterSpans(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := rec.startOn(4, "master "+r.URL.Path, 0, "")
		h.ServeHTTP(w, r)
		rec.end(sp)
	})
}
