package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cnn"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/sweep"
)

// gridNodes is the fleet size of grid_net.
const gridNodes = 2

// gridInput is everything a grid_net run feeds the program.
type gridInput struct {
	// SuiteSeed seeds the suite's bench and regression fit; measurement
	// noise seeds derive from it and each cell's content.
	SuiteSeed int64
	Grid      sweep.Grid
}

// gridInputs generates grid_net's inputs: the paper's evaluation grid
// at fleet scale (8 devices × 2 modes × 11 CNNs × 5 frame sizes × 3
// clocks) under a suite seed drawn from the workload seed.
func gridInputs(seed int64) gridInput {
	return gridInput{
		SuiteSeed: derive(seed, 1),
		Grid: sweep.Grid{
			Devices:    device.Catalog(),
			Modes:      []pipeline.InferenceMode{pipeline.ModeLocal, pipeline.ModeRemote},
			CNNs:       cnn.Catalog(),
			FrameSizes: experiments.FrameSizes(),
			CPUFreqs:   []float64{1, 2, 0}, // 0 = device maximum
		},
	}
}

// warmGrid is the small grid a set-up runs to dial the fleet.
func warmGrid() sweep.Grid {
	return sweep.Grid{
		Devices:    device.Catalog()[:2],
		Modes:      []pipeline.InferenceMode{pipeline.ModeLocal, pipeline.ModeRemote},
		FrameSizes: []float64{300, 400},
		CPUFreqs:   []float64{1, 0},
	}
}

// gridEnv is one grid_net set-up: a fitted suite and a NetRunner dialed
// to loopback fleet nodes.
type gridEnv struct {
	suite *experiments.Suite
	nodes *nodeSet
	nr    *sweep.NetRunner
}

func (e *gridEnv) close() {
	_ = e.nr.Close()
	e.nodes.stop()
}

func runGridNet(ctx context.Context, cfg config) (*result, error) {
	in := gridInputs(cfg.seed)
	res := &result{Env: machineEnv(cfg)}
	res.note("grid: %d points; suite seed %d; %d loopback fleet nodes", in.Grid.Size(), in.SuiteSeed, gridNodes)

	env, setup, err := timedSetup(func() (*gridEnv, error) {
		suite, err := experiments.NewSuite(in.SuiteSeed, experiments.DefaultTrainRows, experiments.DefaultTestRows)
		if err != nil {
			return nil, err
		}
		nodes, err := startNodes(ctx, gridNodes, serveFleetNode)
		if err != nil {
			return nil, err
		}
		e := &gridEnv{suite: suite, nodes: nodes, nr: &sweep.NetRunner{Nodes: nodes.addrs}}
		suite.Runner = e.nr
		if _, err := suite.RunGrid(ctx, warmGrid()); err != nil {
			e.close()
			return nil, fmt.Errorf("fleet warm-up: %w", err)
		}
		return e, nil
	}, (*gridEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	tr := newTracer()
	var hits, seen atomic.Int64
	job := func(traced bool) jobFunc {
		return func(ctx context.Context, _, seq int) sample {
			// A fresh memoizing cache per job: every job measures its
			// grid's unique cells on the fleet.
			backend := sweep.Runner(env.nr)
			if traced {
				backend = &timedRunner{next: env.nr, tr: tr, name: spanBackend}
			}
			cache := sweep.NewCachedRunner(backend)
			env.suite.Runner = cache
			trace, id := int64(seq+1), tr.newID()
			if traced {
				env.suite.Runner = &timedRunner{next: cache, tr: tr, name: spanCache, emitName: spanEmit}
				ctx = withSpan(ctx, trace, id)
			}
			t0 := tr.now()
			start := time.Now()
			g, err := env.suite.RunGrid(ctx, in.Grid)
			el := time.Since(start)
			if traced {
				tr.record(span{Trace: trace, ID: id, Name: spanJob, Start: t0, End: tr.now()})
				st := cache.Stats()
				hits.Add(st.Hits)
				seen.Add(st.Hits + st.Misses + st.DiskHits)
			}
			s := sample{kind: "grid", ms: ms(el), err: err}
			if err == nil {
				s.digest, s.err = gridDigest(g)
			}
			return s
		}
	}

	if w := job(false)(ctx, 0, -1); w.err != nil {
		return nil, fmt.Errorf("warm-up job: %w", w.err)
	}
	var steals int64
	rs, err := timedPhases(ctx, cfg, 1, tr, job,
		func() { steals = env.nr.Steals() }, func() { steals = env.nr.Steals() - steals })
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		hitRatio := float64(hits.Load()) / float64(max(seen.Load(), 1))
		if err := res.gridLayers(ctx, cfg, tr, rs, in, hitRatio, steals); err != nil {
			return nil, err
		}
	}

	// Oracle: a one-shot single-worker render of the same job.
	oracle, err := experiments.NewSuite(in.SuiteSeed, experiments.DefaultTrainRows, experiments.DefaultTestRows)
	if err != nil {
		return nil, err
	}
	oracle.Runner = &sweep.PoolRunner{Workers: 1}
	og, err := oracle.RunGrid(ctx, in.Grid)
	if err != nil {
		return nil, fmt.Errorf("oracle render: %w", err)
	}
	want, err := gridDigest(og)
	if err != nil {
		return nil, err
	}
	res.checkPhases(rs.all, func(sample) string { return want })
	res.endToEnd(setup, rs.untraced, !cfg.trace)
	res.add("cells_per_s", float64(in.Grid.Size())*res.value("jobs_per_s"), "1/s", res.samples("jobs_per_s"), false)
	return res, nil
}

// gridLayers reports grid_net's per-layer metrics from the traced
// phase's spans and the replays of its captured requests.
func (r *result) gridLayers(ctx context.Context, cfg config, tr *tracer, rs runSet, in gridInput, hitRatio float64, steals int64) error {
	spans := tr.snapshot()
	self := selfTimes(spans)
	dur, cells := spanTotals(spans)
	n := len(rs.traced.samples)
	perJob := func(ns int64) float64 { return float64(ns) / 1e6 / float64(n) }
	all, _ := tr.captured(spanCache)
	owned, _ := tr.captured(spanBackend)

	r.addLayer("experiments.request_build_ms", perJob(self[spanJob]), "ms", n)
	r.addLayer("experiments.emit_ms", perJob(dur[spanEmit]), "ms", n)
	if err := r.replayFit(in.SuiteSeed, experiments.DefaultTrainRows, experiments.DefaultTestRows); err != nil {
		return err
	}
	if err := replayRequestKeys(r, all, in.SuiteSeed); err != nil {
		return err
	}
	replayRNG(r, owned)
	if err := replayExecute(ctx, r, owned); err != nil {
		return err
	}
	r.addIdle("testbed.session_ms_per_user")
	if err := replayWire(ctx, r, owned); err != nil {
		return err
	}
	if err := replayDispatch(ctx, r, owned); err != nil {
		return err
	}
	r.addLayer("sweep.backend_ms", perJob(dur[spanBackend]), "ms", n)
	r.addLayer("sweep.backend_cells", float64(cells[spanBackend])/float64(n), "count/job", n)
	r.addLayer("sweep.cache_self_ms", perJob(self[spanCache]), "ms", n)
	r.addLayer("sweep.cache_hit_ratio", hitRatio, "ratio", n)
	r.addIdle("sweep.disk_put_us", "sweep.disk_get_us", "sweep.disk_stores")
	r.addLayer("sweep.steals", float64(steals)/float64(n), "count/job", n)
	r.addIdle("testbed.summary_merge_us", "stats.sketch_add_ns", "server.rejected", "server.rho", "server.observed_sojourn_ms")
	return r.traceSummary(cfg, spans, spanEmit, rs)
}

// gridDigest hashes a grid result's table and full-precision CSV.
func gridDigest(g *experiments.GridResult) (string, error) {
	h := sha256.New()
	if _, err := h.Write([]byte(g.Render())); err != nil {
		return "", err
	}
	if err := g.WriteCSV(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
