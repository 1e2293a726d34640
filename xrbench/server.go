package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// serverClients is the number of closed-loop submit clients of
// server_mixed.
const serverClients = 2

// Job kinds of server_mixed, in the order each client cycles through
// them. The first two are reads (cache hits once primed); the third
// writes (every cell misses and is measured).
var serverKinds = []string{"report", "read_sweep", "write_sweep"}

// serverInput is everything a server_mixed run feeds the program.
type serverInput struct {
	Report    job.Job
	ReadSweep job.Job
	// WriteBase seeds the write jobs: write job k runs WriteSweep under
	// a fresh seed derived from WriteBase and k.
	WriteBase  int64
	WriteSweep job.Job
}

// serverInputs generates server_mixed's inputs: a report job and a fixed
// 240-point sweep (8 devices × 2 modes × 5 frame sizes × 3 clocks) under
// one suite seed drawn from the workload seed, and the template of the
// fresh-seed write sweeps.
func serverInputs(seed int64) serverInput {
	spec := job.Spec{
		Seed:      derive(seed, 3),
		TrainRows: experiments.DefaultTrainRows,
		TestRows:  experiments.DefaultTestRows,
		Trials:    experiments.DefaultTrials,
	}
	grid := &job.Grid{
		Devices: []string{"all"},
		Modes:   []string{"local", "remote"},
		Sizes:   experiments.FrameSizes(),
		Freqs:   []float64{1, 2, 0},
	}
	return serverInput{
		Report:     job.Job{Kind: job.KindReport, Spec: spec},
		ReadSweep:  job.Job{Kind: job.KindSweep, Spec: spec, Grid: grid},
		WriteBase:  derive(seed, 4),
		WriteSweep: job.Job{Kind: job.KindSweep, Spec: spec, Grid: grid},
	}
}

// writeJob is write job k: the write sweep under its own fresh seed.
func (in serverInput) writeJob(k int64) job.Job {
	j := in.WriteSweep
	j.Spec.Seed = derive(in.WriteBase, uint64(k))
	return j
}

// serverEnv is one server_mixed set-up: a job server over a shared
// in-memory memoizing pool runner, primed by one run of each read job.
// The priming is part of set-up: it is what the server pays before its
// reads are warm.
type serverEnv struct {
	cache  *sweep.CachedRunner
	addr   string
	cancel context.CancelFunc
	done   chan struct{}
	// primed holds the priming runs, checked like every other job.
	primed phase
}

func (e *serverEnv) close() {
	e.cancel()
	<-e.done
}

func runServerMixed(ctx context.Context, cfg config) (*result, error) {
	in := serverInputs(cfg.seed)
	res := &result{Env: machineEnv(cfg)}
	tr := newTracer()
	env, setup, err := timedSetup(func() (*serverEnv, error) {
		backend := sweep.Runner(&sweep.PoolRunner{})
		if cfg.trace {
			backend = &timedRunner{next: backend, tr: tr, name: spanBackend}
		}
		cache := sweep.NewCachedRunner(backend)
		srv, err := server.New(server.Config{Runner: cache})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		sctx, cancel := context.WithCancel(ctx)
		e := &serverEnv{cache: cache, addr: ln.Addr().String(), cancel: cancel, done: make(chan struct{})}
		go func() {
			defer close(e.done)
			_ = srv.Serve(sctx, ln)
		}()
		if _, err := server.QueryStats(ctx, e.addr); err != nil {
			e.close()
			return nil, fmt.Errorf("server start: %w", err)
		}
		// Prime the cache: after one run of each read job, reads are
		// hits.
		for _, k := range serverKinds[:2] {
			s := submitJob(ctx, e.addr, k, in.readJob(k), 0)
			if s.err != nil {
				e.close()
				return nil, fmt.Errorf("priming %s: %w", k, s.err)
			}
			e.primed.samples = append(e.primed.samples, s)
		}
		return e, nil
	}, (*serverEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.note("server: %d closed-loop clients cycling %v; 240-point sweeps; suite seed %d; write seeds from %d",
		serverClients, serverKinds, in.Report.Spec.Seed, in.WriteBase)

	var writes atomic.Int64
	next := make([]int, serverClients)
	job := func(ctx context.Context, client, _ int) sample {
		kind := serverKinds[(next[client]+client)%len(serverKinds)]
		next[client]++
		if kind == "write_sweep" {
			k := writes.Add(1)
			return submitJob(ctx, env.addr, kind, in.writeJob(k), k)
		}
		return submitJob(ctx, env.addr, kind, in.readJob(kind), 0)
	}

	var cacheBefore sweep.CacheStats
	rs, err := timedPhases(ctx, cfg, serverClients, tr, func(bool) jobFunc { return job },
		func() { cacheBefore = env.cache.Stats() }, func() {})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := res.serverLayers(ctx, cfg, tr, env, in, rs, cacheBefore); err != nil {
			return nil, err
		}
	}

	// Oracles: one-shot single-worker renders of the read jobs and of
	// every write job, rendered after the timed phases.
	phases := append([]phase{env.primed}, rs.all...)
	want, err := serverOracles(ctx, in, phases)
	if err != nil {
		return nil, err
	}
	res.checkPhases(phases, func(s sample) string { return want[oracleKey{s.kind, s.arg}] })
	res.endToEnd(setup, rs.untraced, !cfg.trace)
	readMS, writeMS := rs.untraced.times("report", "read_sweep"), rs.untraced.times("write_sweep")
	res.add("read_job_p50_ms", median(readMS), "ms", len(readMS), false)
	res.add("write_job_p50_ms", median(writeMS), "ms", len(writeMS), false)
	return res, nil
}

// readJob returns the read job of the given kind.
func (in serverInput) readJob(kind string) job.Job {
	if kind == "report" {
		return in.Report
	}
	return in.ReadSweep
}

// submitJob runs one job through the server and hashes its output.
func submitJob(ctx context.Context, addr, kind string, j job.Job, arg int64) sample {
	h := sha256.New()
	start := time.Now()
	err := server.Submit(ctx, addr, j, h)
	return sample{kind: kind, ms: ms(time.Since(start)), digest: hex.EncodeToString(h.Sum(nil)), err: err, arg: arg}
}

// oracleKey identifies one distinct job of server_mixed.
type oracleKey struct {
	kind string
	arg  int64
}

// serverOracles renders every distinct job of the phases once on a
// fresh single-worker pool runner, two renders at a time, and returns
// the digests.
func serverOracles(ctx context.Context, in serverInput, phases []phase) (map[oracleKey]string, error) {
	jobs := map[oracleKey]job.Job{}
	for _, p := range phases {
		for _, s := range p.samples {
			k := oracleKey{s.kind, s.arg}
			if _, ok := jobs[k]; ok {
				continue
			}
			if s.kind == "write_sweep" {
				jobs[k] = in.writeJob(s.arg)
			} else {
				jobs[k] = in.readJob(s.kind)
			}
		}
	}
	keys := make(chan oracleKey, len(jobs)) // holds every key: sends never block
	for k := range jobs {
		keys <- k
	}
	close(keys)
	var (
		mu       sync.Mutex
		out      = make(map[oracleKey]string, len(jobs))
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				d, err := oracleDigest(ctx, jobs[k])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle render of %s job: %w", k.kind, err)
				}
				out[k] = d
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// oracleDigest renders j once on a fresh single-worker pool runner, the
// way the one-shot CLI would, and hashes the bytes.
func oracleDigest(ctx context.Context, j job.Job) (string, error) {
	suite, err := j.SuiteFor(sweep.NewCachedRunner(&sweep.PoolRunner{Workers: 1}))
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := j.Run(ctx, suite, h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// serverLayers reports server_mixed's per-layer metrics from the traced
// phase's backend spans, the server's own counters and the replays of
// the captured write traffic.
func (r *result) serverLayers(ctx context.Context, cfg config, tr *tracer, env *serverEnv, in serverInput,
	rs runSet, cacheBefore sweep.CacheStats) error {
	spans := tr.snapshot()
	dur, cells := spanTotals(spans)
	n := len(rs.traced.samples)
	reqs, meas := tr.captured(spanBackend)
	if len(reqs) == 0 {
		return fmt.Errorf("no backend traffic captured")
	}
	st, err := server.QueryStats(ctx, env.addr)
	if err != nil {
		return err
	}
	cache := env.cache.Stats()

	r.addIdle("experiments.request_build_ms", "experiments.emit_ms")
	spec := in.Report.Spec
	if err := r.replayFit(spec.Seed, spec.TrainRows, spec.TestRows); err != nil {
		return err
	}
	if err := replayRequestKeys(r, reqs, spec.Seed); err != nil {
		return err
	}
	replayRNG(r, reqs)
	if err := replayExecute(ctx, r, reqs); err != nil {
		return err
	}
	r.addIdle("testbed.session_ms_per_user", "testbed.encode_us_per_cell", "testbed.decode_us_per_cell",
		"testbed.wire_bytes_per_cell", "testbed.frame_io_us_per_cell", "sweep.dispatch_us_per_cell")
	r.addLayer("sweep.backend_ms", float64(dur[spanBackend])/1e6/float64(n), "ms", n)
	r.addLayer("sweep.backend_cells", float64(cells[spanBackend])/float64(n), "count/job", n)
	if err := replayCacheHits(ctx, r, env.cache, reqs); err != nil {
		return err
	}
	hits := cache.Hits - cacheBefore.Hits
	classified := hits + cache.Misses - cacheBefore.Misses
	r.addLayer("sweep.cache_hit_ratio", float64(hits)/float64(max(classified, 1)), "ratio", int(classified))
	dir, err := filepath.Abs(filepath.Join(cfg.outDir, fmt.Sprintf("disk-replay-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := replayDisk(r, reqs, meas, dir); err != nil {
		return err
	}
	r.addIdle("sweep.disk_stores")
	r.addIdle("sweep.steals", "testbed.summary_merge_us", "stats.sketch_add_ns")
	r.addLayer("server.rejected", float64(st.Rejected)/float64(max(st.Arrivals, 1)), "count/job", int(st.Arrivals))
	r.addLayer("server.rho", st.Rho, "ratio", int(st.Completed))
	r.addLayer("server.observed_sojourn_ms", st.ObservedSojournMS, "ms", int(st.Completed))
	return r.traceSummary(cfg, spans, spanNone, rs)
}

// replayCacheHits times CachedRunner.Stream over one sweep job's worth
// of already-cached requests: the cache's own cost on the read path.
func replayCacheHits(ctx context.Context, r *result, cache *sweep.CachedRunner, reqs []testbed.Request) error {
	one := reqs[:min(240, len(reqs))]
	discard := func(int, testbed.Measurement) error { return nil }
	d, err := perOp(1, func(int) error { return cache.Stream(ctx, one, discard) })
	if err != nil {
		return fmt.Errorf("replay cache hits: %w", err)
	}
	r.addLayer("sweep.cache_self_ms", ms(d), "ms", len(one))
	return nil
}
