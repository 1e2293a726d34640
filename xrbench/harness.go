package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run builds its backend from scratch;
// setup_s reports the median, and the last build serves the run.
const setupReps = 9

// timedSetup builds the workload's environment setupReps times, tearing
// down all but the last, and returns it with every build's seconds.
func timedSetup[T any](build func() (T, error), teardown func(T)) (T, []float64, error) {
	var env T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		e, err := build()
		if err != nil {
			return env, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			teardown(e)
		}
		env = e
	}
	return env, times, nil
}

// sample is one job of a timed phase.
type sample struct {
	// kind labels the job type ("grid", "population", "report",
	// "read_sweep", "write_sweep").
	kind string
	// ms is the job's wall time, excluding the digest of its output.
	ms float64
	// digest is the hex SHA-256 of the job's output bytes.
	digest string
	// err is the job's failure, if any.
	err error
	// arg carries a job parameter the oracle needs (a write job's index).
	arg int64
}

// phase is the outcome of one closed-loop timed phase.
type phase struct {
	clients    int
	samples    []sample
	allocBytes uint64
	// rssMB is the process's peak RSS once rssJobs jobs had completed
	// (or at the end of a shorter phase): a fixed amount of work, so
	// the figure does not grow with how many jobs a run fits in.
	rssMB float64
	// steal is the host's CPU steal over the phase (see cpuStat).
	steal cpuStat
	// refMS is hostRef's time, measured before and after the phase.
	refMS []float64
}

// rssJobs is the completed-job count at which a phase samples peak RSS.
var rssJobs = minJobsFor(0.9)

// jobFunc runs one job: seq is the phase-global job index.
type jobFunc func(ctx context.Context, client, seq int) sample

// runPhase runs clients closed-loop clients — each issues its next job
// only after the previous one returns — until d has elapsed and at least
// minJobs jobs have completed, or 3×d has elapsed.
func runPhase(ctx context.Context, clients int, d time.Duration, minJobs int, job jobFunc) (phase, error) {
	var before, after runtime.MemStats
	refMS := []float64{hostRef()}
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpuBefore := readCPUStat()
	start := time.Now()
	var (
		next, done atomic.Int64
		mu         sync.Mutex
		samples    []sample
		rss        float64
		wg         sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				el := time.Since(start)
				if (el >= d && done.Load() >= int64(minJobs)) || el >= 3*d {
					return
				}
				s := job(ctx, c, int(next.Add(1)-1))
				n := done.Add(1)
				mu.Lock()
				samples = append(samples, s)
				if n == int64(rssJobs) {
					rss = maxRSSMB()
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	steal := readCPUStat().since(cpuBefore)
	runtime.ReadMemStats(&after)
	if err := ctx.Err(); err != nil {
		return phase{}, err
	}
	if rss == 0 {
		rss = maxRSSMB()
	}
	refMS = append(refMS, hostRef())
	return phase{clients: clients, samples: samples, allocBytes: after.TotalAlloc - before.TotalAlloc, rssMB: rss, steal: steal, refMS: refMS}, nil
}

// runSet is the timed phases of one run.
type runSet struct {
	// all holds every phase, for the correctness check.
	all []phase
	// untraced gives the end-to-end figures.
	untraced phase
	// traced is a traced run's traced phase.
	traced phase
}

// timedPhases runs a plain run's one timed phase, which goes on until at
// least 100 jobs are done so the p90 has ten samples beyond it; or a
// traced run's three phases: untraced, traced, untraced again, a
// quarter, a half and a quarter of the run, so a drift over the run
// weighs equally on both sides of the overhead comparison. before and
// after bracket the traced phase, to snapshot counters.
func timedPhases(ctx context.Context, cfg config, clients int, tr *tracer, job func(traced bool) jobFunc, before, after func()) (runSet, error) {
	d := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		p, err := runPhase(ctx, clients, d, minJobsFor(0.9), job(false))
		return runSet{all: []phase{p}, untraced: p}, err
	}
	u1, err := runPhase(ctx, clients, d/4, 1, job(false))
	if err != nil {
		return runSet{}, err
	}
	before()
	tr.on.Store(true)
	t, err := runPhase(ctx, clients, d/2, 1, job(true))
	tr.on.Store(false)
	if err != nil {
		return runSet{}, err
	}
	after()
	u2, err := runPhase(ctx, clients, d/4, 1, job(false))
	if err != nil {
		return runSet{}, err
	}
	u := phase{
		clients:    clients,
		samples:    append(append([]sample(nil), u1.samples...), u2.samples...),
		allocBytes: u1.allocBytes + u2.allocBytes,
		rssMB:      math.Max(u1.rssMB, u2.rssMB),
		steal:      u1.steal.plus(u2.steal),
		refMS:      append(append([]float64(nil), u1.refMS...), u2.refMS...),
	}
	return runSet{all: []phase{u1, t, u2}, untraced: u, traced: t}, nil
}

// times returns the wall times of the successful jobs of the given
// kinds (all kinds when none are named).
func (p phase) times(kinds ...string) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.err != nil {
			continue
		}
		if len(kinds) > 0 && !contains(kinds, s.kind) {
			continue
		}
		out = append(out, s.ms)
	}
	return out
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// checkPhases compares every job's output digest with want(sample)
// and counts each job that errored or mismatched as failed. Every job of
// every phase counts as attempted.
func (r *result) checkPhases(phases []phase, want func(s sample) string) {
	for _, p := range phases {
		for _, s := range p.samples {
			r.Attempted++
			var why string
			switch {
			case s.err != nil:
				why = s.err.Error()
			case s.digest != want(s):
				why = fmt.Sprintf("%s job output digest %.12s differs from the one-shot render's %.12s", s.kind, s.digest, want(s))
			default:
				continue
			}
			if r.Failed == 0 {
				r.note("FAILED: first failing job: %s", why)
			}
			r.Failed++
		}
	}
}

// endToEnd adds the end-to-end metrics every workload reports: set-up
// time, per-job latency median and tail, job throughput, allocation per
// job, peak RSS and the failure ratio (over every phase checked so
// far). gated selects whether they go in the JSON line (plain runs) or
// are printed for reading only (traced runs).
func (r *result) endToEnd(setup []float64, p phase, gated bool) {
	t := sortedCopy(p.times())
	n := len(p.samples)
	r.JobMS = map[string][]float64{}
	for _, s := range p.samples {
		if s.err == nil {
			r.JobMS[s.kind] = append(r.JobMS[s.kind], s.ms)
		}
	}
	r.add("setup_s", median(setup), "s", len(setup), gated)
	r.add("job_p50_ms", percentile(t, 0.5), "ms", len(t), gated)
	r.add("job_p90_ms", percentile(t, 0.9), "ms", len(t), gated)
	if gated && len(t) < minJobsFor(0.9) {
		r.note("job_p90_ms has only %d samples beyond it (want %d)", beyond(len(t), 0.9), minTail)
	}
	jps := 0.0
	if m := midMean(t); m > 0 {
		// Closed loop: each client is busy for its jobs' wall time, so
		// clients/(job time) is jobs per second of timed wall. The
		// middle half of the sorted job times stands for a job, so a
		// few jobs stalled by the host do not swing the figure.
		jps = float64(p.clients) * 1000 / m
	}
	r.add("jobs_per_s", jps, "1/s", len(t), gated)
	r.add("alloc_mb_per_job", float64(p.allocBytes)/float64(max(n, 1))/(1<<20), "MB", n, gated)
	r.add("max_rss_mb", p.rssMB, "MB", min(len(p.samples), rssJobs), gated)
	r.add("fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Attempted, false)
	// Steal is the share of CPU time the hypervisor gave to other
	// guests while the phase ran, and host_ref_ms how fast the host ran
	// a fixed piece of work around it: together they tell an outlying
	// run on a busy shared host from a slower program.
	r.add("host_steal_pct", p.steal.pct(), "%", 1, false)
	r.add("host_ref_ms", mean(p.refMS), "ms", len(p.refMS), false)
}

// cpuStat is the machine-wide CPU time counters of /proc/stat, in
// clock ticks.
type cpuStat struct{ steal, total uint64 }

// readCPUStat reads the aggregate "cpu" line of /proc/stat; it returns
// zeros where the file is unavailable.
func readCPUStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

func (c cpuStat) since(o cpuStat) cpuStat { return cpuStat{c.steal - o.steal, c.total - o.total} }
func (c cpuStat) plus(o cpuStat) cpuStat  { return cpuStat{c.steal + o.steal, c.total + o.total} }

// pct is steal as a percentage of all CPU time.
func (c cpuStat) pct() float64 {
	if c.total == 0 {
		return 0
	}
	return 100 * float64(c.steal) / float64(c.total)
}
