package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sweep"
	"repro/internal/testbed"
)

// layer describes one per-layer metric: its unit, whether a higher value
// is better, and the end-to-end metric a change to the layer should move.
type layer struct {
	name   string
	unit   string
	higher bool
	moves  string
}

// layers lists every per-layer metric in report order. Every traced run
// reports all of them; a layer the workload does not exercise reads 0.
var layers = []layer{
	{"experiments.request_build_ms", "ms", false, "grid_net job_p50_ms"},
	{"experiments.emit_ms", "ms", false, "grid_net job_p50_ms"},
	{"experiments.fit_ms", "ms", false, "server_mixed read_job_p50_ms, jobs_per_s; setup_s"},
	{"testbed.fingerprint_us", "us", false, "grid_net cells_per_s, server_mixed read_job_p50_ms"},
	{"testbed.content_seed_us", "us", false, "grid_net cells_per_s, server_mixed read_job_p50_ms"},
	{"stats.rng_seed_us", "us", false, "grid_net cells_per_s, population_proc users_per_s"},
	{"testbed.execute_us_per_cell", "us", false, "grid_net cells_per_s, server_mixed write_job_p50_ms"},
	{"testbed.session_ms_per_user", "ms", false, "population_proc users_per_s"},
	{"testbed.encode_us_per_cell", "us", false, "grid_net job_p50_ms"},
	{"testbed.decode_us_per_cell", "us", false, "grid_net job_p50_ms"},
	{"testbed.wire_bytes_per_cell", "B", false, "grid_net job_p50_ms"},
	{"testbed.frame_io_us_per_cell", "us", false, "grid_net job_p50_ms"},
	{"sweep.dispatch_us_per_cell", "us", false, "grid_net job_p50_ms, job_p90_ms"},
	{"sweep.backend_ms", "ms", false, "all"},
	{"sweep.backend_cells", "count/job", false, "all"},
	{"sweep.cache_self_ms", "ms", false, "server_mixed read_job_p50_ms"},
	{"sweep.cache_hit_ratio", "ratio", true, "server_mixed read_job_p50_ms"},
	{"sweep.disk_put_us", "us", false, "none here (xrperf -cache-dir runs)"},
	{"sweep.disk_get_us", "us", false, "none here (xrperf -cache-dir runs)"},
	{"sweep.disk_stores", "count/job", false, "none here (xrperf -cache-dir runs)"},
	{"sweep.steals", "count/job", false, "grid_net job_p90_ms"},
	{"testbed.summary_merge_us", "us", false, "population_proc users_per_s"},
	{"stats.sketch_add_ns", "ns", false, "population_proc users_per_s"},
	{"server.rejected", "count/job", false, "server_mixed jobs_per_s"},
	{"server.rho", "ratio", false, "server_mixed jobs_per_s"},
	{"server.observed_sojourn_ms", "ms", false, "server_mixed jobs_per_s"},
	{"trace.overhead_pct", "%", false, "none: traced minus untraced mean job time"},
}

var layerByName = func() map[string]layer {
	m := make(map[string]layer, len(layers))
	for _, l := range layers {
		m[l.name] = l
	}
	return m
}()

// spanName names the layer boundary a span was recorded at. It is a
// small integer rather than a string so that spans hold no pointers and
// the garbage collector need not scan the in-memory span log.
type spanName uint8

const (
	spanNone spanName = iota
	spanJob
	spanCache
	spanBackend
	spanEmit
	spanMerge
)

var spanNames = [...]string{spanNone: "", spanJob: "job", spanCache: "cache", spanBackend: "backend", spanEmit: "emit", spanMerge: "merge"}

func (n spanName) String() string { return spanNames[n] }

// MarshalText writes the name in span dumps.
func (n spanName) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// span is one timed interval at a layer boundary. Spans of one job share
// Trace; Parent is the enclosing span (0 for a root).
type span struct {
	Trace  int64    `json:"trace"`
	ID     int64    `json:"id"`
	Parent int64    `json:"parent"`
	Name   spanName `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Cells counts the requests a runner span carried.
	Cells int `json:"cells,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the traced phase and captures a
// sample of the requests (and their measurements) crossing each runner
// boundary, for the layer replays. A disabled tracer records nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
	// caps holds the captured traffic per runner boundary.
	caps map[spanName]*capture
}

// capture is the traffic sampled at one runner boundary.
type capture struct {
	reqs []testbed.Request
	ms   []testbed.Measurement // ms[i] answers reqs[i] once delivered
}

// captureLimit bounds the requests captured per boundary.
const captureLimit = 4096

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), caps: map[spanName]*capture{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// captured returns the traffic captured at a boundary, requests whose
// measurement never arrived dropped.
func (t *tracer) captured(name spanName) ([]testbed.Request, []testbed.Measurement) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.caps[name]
	if c == nil {
		return nil, nil
	}
	n := len(c.ms)
	return append([]testbed.Request(nil), c.reqs[:n]...), append([]testbed.Measurement(nil), c.ms...)
}

type spanKey struct{}

type spanCtx struct{ trace, id int64 }

// withSpan marks ctx as running inside span id of trace.
func withSpan(ctx context.Context, trace, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{trace, id})
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

// timedRunner is a sweep.Runner that records a span around each Stream
// call of the runner it wraps and, when emitName is set, a child span
// around each emit callback. It captures the first requests it carries
// (and, for the capturing boundary, their measurements).
type timedRunner struct {
	next     sweep.Runner
	tr       *tracer
	name     spanName
	emitName spanName
}

// Run implements sweep.Runner.
func (r *timedRunner) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	out := make([]testbed.Measurement, len(reqs))
	err := r.Stream(ctx, reqs, func(i int, m testbed.Measurement) error {
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stream implements sweep.Runner.
func (r *timedRunner) Stream(ctx context.Context, reqs []testbed.Request, emit func(int, testbed.Measurement) error) error {
	t := r.tr
	if !t.on.Load() {
		return r.next.Stream(ctx, reqs, emit)
	}
	parent := spanFrom(ctx)
	id := t.newID()
	base := r.startCapture(reqs)
	inner := func(i int, m testbed.Measurement) error {
		r.deliver(base, i, m)
		if r.emitName == spanNone {
			return emit(i, m)
		}
		s := t.now()
		err := emit(i, m)
		t.record(span{Trace: parent.trace, ID: t.newID(), Parent: id, Name: r.emitName, Start: s, End: t.now()})
		return err
	}
	start := t.now()
	err := r.next.Stream(withSpan(ctx, parent.trace, id), reqs, inner)
	t.record(span{Trace: parent.trace, ID: id, Parent: parent.id, Name: r.name, Start: start, End: t.now(), Cells: len(reqs)})
	return err
}

// startCapture appends reqs to the boundary's capture while it has room
// and returns the capture offset of reqs[0], or -1 when none were kept.
func (r *timedRunner) startCapture(reqs []testbed.Request) int {
	t := r.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.caps[r.name]
	if c == nil {
		c = &capture{}
		t.caps[r.name] = c
	}
	// Only whole calls are captured, and only while every earlier
	// captured call has been answered, so ms stays aligned with reqs.
	if len(c.reqs) != len(c.ms) || len(c.reqs)+len(reqs) > captureLimit {
		return -1
	}
	base := len(c.reqs)
	c.reqs = append(c.reqs, reqs...)
	return base
}

// deliver records the measurement answering captured request base+i.
// Stream emits in request order, so appends line up with reqs.
func (r *timedRunner) deliver(base, i int, m testbed.Measurement) {
	if base < 0 {
		return
	}
	t := r.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.caps[r.name]
	if len(c.ms) == base+i {
		c.ms = append(c.ms, m)
	}
}

// selfTimes returns, per span name, the summed self time in ns: each
// span's duration minus the part of it covered by the union of its
// children's intervals.
func selfTimes(spans []span) map[spanName]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[spanName]int64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < s.Start {
			a = s.Start
		}
		if b > s.End {
			b = s.End
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = x[0], x[1], true
			continue
		}
		if x[1] > curB {
			curB = x[1]
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// spanTotals sums durations and cells per span name.
func spanTotals(spans []span) (dur map[spanName]int64, cells map[spanName]int) {
	dur, cells = map[spanName]int64{}, map[spanName]int{}
	for _, s := range spans {
		dur[s.Name] += s.dur()
		cells[s.Name] += s.Cells
	}
	return dur, cells
}

// dumpSpans writes the spans as JSON lines. Emit-callback spans are
// coalesced into one summary line per parent (their count and summed
// busy time), which keeps the dump small; the self times reported by
// the run are computed from the uncoalesced spans.
func dumpSpans(path string, spans []span, leaf spanName) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type agg struct {
		span
		Calls  int   `json:"calls"`
		BusyNS int64 `json:"busy_ns"`
	}
	leaves := map[int64]*agg{}
	var order []int64
	for _, s := range spans {
		if s.Name != leaf {
			if err := enc.Encode(s); err != nil {
				_ = f.Close()
				return err
			}
			continue
		}
		a := leaves[s.Parent]
		if a == nil {
			a = &agg{span: s}
			leaves[s.Parent] = a
			order = append(order, s.Parent)
		}
		a.Calls++
		a.BusyNS += s.dur()
		if s.End > a.End {
			a.End = s.End
		}
	}
	for _, p := range order {
		if err := enc.Encode(leaves[p]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// spanPath is where a traced run dumps its spans.
func spanPath(cfg config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// overheadPct is how far the traced phase's mean job time lies above the
// untraced phases', in percent. Means, not medians: the untraced
// quarters bracket the traced half, so a linear drift over the run
// cancels in their mean but not in the median of their union.
func overheadPct(untraced, traced phase) float64 {
	u := mean(untraced.times())
	if u == 0 {
		return 0
	}
	return 100 * (mean(traced.times()) - u) / u
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// traceSummary reports the tracing overhead, notes how the span self
// times add up against the job wall time, and dumps the spans. leaf names
// the per-callback spans the dump coalesces.
func (r *result) traceSummary(cfg config, spans []span, leaf spanName, rs runSet) error {
	r.addLayer("trace.overhead_pct", overheadPct(rs.untraced, rs.traced), "%", len(rs.traced.samples))
	self := selfTimes(spans)
	dur, _ := spanTotals(spans)
	if job := dur[spanJob]; job > 0 {
		var sum int64
		for _, v := range self {
			sum += v
		}
		r.note("span self times sum to %.2f%% of job wall time; the excess over 100%% is time concurrent sibling spans overlap", 100*float64(sum)/float64(job))
	}
	path := spanPath(cfg)
	if err := dumpSpans(path, spans, leaf); err != nil {
		return fmt.Errorf("dump spans: %w", err)
	}
	r.note("%d spans written to %s", len(spans), path)
	return nil
}
