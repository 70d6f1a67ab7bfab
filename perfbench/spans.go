package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"vbench/internal/telemetry"
)

// span is one timed call into a layer, recorded by the benchmark
// around the program's public functions (never inside them).
type span struct {
	name   string
	id     int
	parent int    // 0 for a root
	job    string // request or cell the span belongs to
	thread int    // timeline the span runs on (0 = the driving client)
	start  time.Duration
	end    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untimed path costs one nil check per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[int]int // span id -> index in spans while open
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: map[int]int{}}
}

// start opens a span on the client thread.
func (r *recorder) start(name string, parent int, job string) int {
	return r.startOn(0, name, parent, job)
}

// startOn opens a span on the given thread and returns its id.
func (r *recorder) startOn(thread int, name string, parent int, job string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.open[id] = len(r.spans)
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, job: job, thread: thread, start: now, end: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.open[id]; ok {
		r.spans[i].end = now
		delete(r.open, id)
	}
}

// add records an already measured interval (for example a queue wait
// observed through a state-transition callback).
func (r *recorder) add(thread int, name string, parent int, job string, from, to time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, id: len(r.spans) + 1, parent: parent, job: job,
		thread: thread, start: from.Sub(r.t0), end: to.Sub(r.t0)})
}

// closed returns a copy of the finished spans.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		d := s.end - s.start
		out[s.name] += (d - covered(s, children[s.id])).Seconds()
	}
	return out
}

// covered measures the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// treeOf returns the spans descending from the root spans named root
// on thread 0 (the client's blocking path), roots included.
func treeOf(spans []span, root string) []span {
	in := map[int]bool{}
	var out []span
	// Spans are appended in start order, so a parent precedes its
	// children.
	for _, s := range spans {
		if (s.parent == 0 && s.name == root && s.thread == 0) || in[s.parent] {
			in[s.id] = true
			out = append(out, s)
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON, the format
// telemetry.ParseChromeTrace reads: one complete ("X") event per span
// with its id, parent and job in args.
func writeChromeTrace(w io.Writer, process string, epoch time.Time, spans []span) error {
	tr := telemetry.ChromeTrace{DisplayTimeUnit: "ms"}
	tr.TraceEvents = append(tr.TraceEvents,
		telemetry.ChromeEvent{Ph: "M", Pid: 1, Name: "process_name", Args: map[string]interface{}{"name": process}},
		telemetry.ChromeEvent{Ph: "M", Pid: 1, Name: "clock_sync", Args: map[string]interface{}{"epoch_us": epoch.UnixMicro()}})
	for _, s := range spans {
		args := map[string]interface{}{telemetry.ArgSpanID: fmt.Sprint(s.id)}
		if s.parent != 0 {
			args[telemetry.ArgParentID] = fmt.Sprint(s.parent)
		}
		if s.job != "" {
			args["job"] = s.job
		}
		tr.TraceEvents = append(tr.TraceEvents, telemetry.ChromeEvent{
			Ph: "X", Pid: 1, Tid: int64(s.thread), Name: s.name,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	name  string
	count int
	total float64 // summed span durations, seconds
	self  float64 // summed self time, seconds
}

// layerTable aggregates spans by name, largest self time first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.name]
		if r == nil {
			r = &layerRow{name: s.name, self: self[s.name]}
			rows[s.name] = r
		}
		r.count++
		r.total += (s.end - s.start).Seconds()
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// writeLayerTable renders rows with each self time's share of wall.
func writeLayerTable(w io.Writer, rows []layerRow, wall float64) error {
	if _, err := fmt.Fprintf(w, "%-28s %8s %12s %12s %7s\n", "span", "count", "total_s", "self_s", "self%"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-28s %8d %12.6f %12.6f %6.2f%%\n",
			r.name, r.count, r.total, r.self, 100*r.self/wall); err != nil {
			return err
		}
	}
	return nil
}

// checkTraceFile reads a written trace back with the program's own
// parser and checks it holds every span.
func checkTraceFile(path string, spans int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := telemetry.ParseChromeTrace(f)
	if err != nil {
		return err
	}
	n := 0
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" {
			n++
		}
	}
	if n != spans {
		return fmt.Errorf("trace %s holds %d spans, want %d", path, n, spans)
	}
	if tr.EpochUS() == 0 {
		return fmt.Errorf("trace %s has no clock_sync anchor", path)
	}
	return nil
}
