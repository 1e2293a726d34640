package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// popProcs is the worker subprocess count of population_proc.
const popProcs = 2

// popInput is everything a population_proc run feeds the program.
type popInput struct {
	Scenario string
	Params   scenario.Params
	Shard    int
}

// popInputs generates population_proc's inputs: the offload scenario at
// 5000 users × 30 frames, sharded 250 users per request, under a
// population seed drawn from the workload seed.
func popInputs(seed int64) popInput {
	return popInput{
		Scenario: "offload",
		Params:   scenario.Params{Users: 5000, Frames: 30, Seed: derive(seed, 2)},
		Shard:    250,
	}
}

// popEnv is one population_proc set-up: the scenario's cohorts and a
// ProcRunner whose workers are spawned and handshaken.
type popEnv struct {
	cohorts []sweep.Cohort
	pr      *sweep.ProcRunner
}

func (e *popEnv) close() { _ = e.pr.Close() }

func runPopulationProc(ctx context.Context, cfg config) (*result, error) {
	in := popInputs(cfg.seed)
	res := &result{Env: machineEnv(cfg)}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res.note("population: scenario %s, %d users x %d frames, shard %d, seed %d; %d worker subprocesses",
		in.Scenario, in.Params.Users, in.Params.Frames, in.Shard, in.Params.Seed, popProcs)

	env, setup, err := timedSetup(func() (*popEnv, error) {
		cohorts, err := scenario.Generate(in.Scenario, in.Params)
		if err != nil {
			return nil, err
		}
		e := &popEnv{cohorts: cohorts, pr: &sweep.ProcRunner{
			Procs:   popProcs,
			Command: []string{exe},
			Env:     []string{testbed.WorkerEnv + "=1"},
		}}
		// Four one-user shards spawn and handshake every worker.
		warm, err := scenario.Generate(in.Scenario, scenario.Params{Users: 4, Frames: 1, Seed: in.Params.Seed})
		if err != nil {
			return nil, err
		}
		if _, err := sweep.RunPopulation(ctx, e.pr, warm, sweep.PopulationOptions{ShardUsers: 1}); err != nil {
			e.close()
			return nil, fmt.Errorf("worker warm-up: %w", err)
		}
		return e, nil
	}, (*popEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	tr := newTracer()
	job := func(traced bool) jobFunc {
		return func(ctx context.Context, _, seq int) sample {
			runner := sweep.Runner(env.pr)
			trace, id := int64(seq+1), tr.newID()
			if traced {
				runner = &timedRunner{next: env.pr, tr: tr, name: spanBackend, emitName: spanMerge}
				ctx = withSpan(ctx, trace, id)
			}
			t0 := tr.now()
			start := time.Now()
			p, err := sweep.RunPopulation(ctx, runner, env.cohorts, sweep.PopulationOptions{ShardUsers: in.Shard})
			el := time.Since(start)
			if traced {
				tr.record(span{Trace: trace, ID: id, Name: spanJob, Start: t0, End: tr.now()})
			}
			s := sample{kind: "population", ms: ms(el), err: err}
			if err == nil {
				s.digest = digest([]byte(p.Render()))
			}
			return s
		}
	}

	if w := job(false)(ctx, 0, -1); w.err != nil {
		return nil, fmt.Errorf("warm-up job: %w", w.err)
	}
	rs, err := timedPhases(ctx, cfg, 1, tr, job, func() {}, func() {})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := res.popLayers(ctx, cfg, tr, rs); err != nil {
			return nil, err
		}
	}

	// Oracle: a one-shot single-worker render of the same job.
	op, err := sweep.RunPopulation(ctx, &sweep.PoolRunner{Workers: 1}, env.cohorts, sweep.PopulationOptions{ShardUsers: in.Shard})
	if err != nil {
		return nil, fmt.Errorf("oracle render: %w", err)
	}
	want := digest([]byte(op.Render()))
	res.checkPhases(rs.all, func(sample) string { return want })
	res.endToEnd(setup, rs.untraced, !cfg.trace)
	res.add("users_per_s", float64(in.Params.Users)*res.value("jobs_per_s"), "1/s", res.samples("jobs_per_s"), false)
	return res, nil
}

// popLayers reports population_proc's per-layer metrics from the traced
// phase's spans and the replays of its captured session shards.
func (r *result) popLayers(ctx context.Context, cfg config, tr *tracer, rs runSet) error {
	spans := tr.snapshot()
	dur, cells := spanTotals(spans)
	n := len(rs.traced.samples)
	shards := cells[spanBackend] / n // every job sends the same shards
	reqs, meas := tr.captured(spanBackend)
	if shards == 0 || len(reqs) < shards {
		return fmt.Errorf("no session shards captured")
	}
	reqs, meas = reqs[:shards], meas[:shards] // replay one job's worth

	r.addIdle("experiments.request_build_ms", "experiments.emit_ms", "experiments.fit_ms",
		"testbed.fingerprint_us", "testbed.content_seed_us")
	replayRNG(r, reqs)
	r.addIdle("testbed.execute_us_per_cell")
	if err := replaySessions(ctx, r, reqs); err != nil {
		return err
	}
	if err := replayWire(ctx, r, reqs); err != nil {
		return err
	}
	if err := replayDispatch(ctx, r, reqs); err != nil {
		return err
	}
	r.addLayer("sweep.backend_ms", float64(dur[spanBackend])/1e6/float64(n), "ms", n)
	r.addLayer("sweep.backend_cells", float64(cells[spanBackend])/float64(n), "count/job", n)
	r.addIdle("sweep.cache_self_ms", "sweep.cache_hit_ratio", "sweep.disk_put_us", "sweep.disk_get_us",
		"sweep.disk_stores", "sweep.steals")
	if err := replaySummaries(r, meas); err != nil {
		return err
	}
	r.addIdle("server.rejected", "server.rho", "server.observed_sojourn_ms")
	return r.traceSummary(cfg, spans, spanMerge, rs)
}
