package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// replayBudget is the minimum time each replay loop runs; it repeats its
// inputs until the budget is spent and reports the mean per operation.
const replayBudget = 150 * time.Millisecond

// perOp repeats op over n inputs until replayBudget has elapsed and
// returns the mean time per input.
func perOp(n int, op func(i int) error) (time.Duration, error) {
	if n == 0 {
		return 0, nil
	}
	start := time.Now()
	ops := 0
	for time.Since(start) < replayBudget || ops == 0 {
		for i := 0; i < n; i++ {
			if err := op(i); err != nil {
				return 0, err
			}
		}
		ops += n
	}
	return time.Since(start) / time.Duration(ops), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// batches splits reqs into frames the way the dispatcher does on a large
// grid: DefaultBatch requests per frame, session requests alone.
func batches(reqs []testbed.Request) [][]testbed.Request {
	var out [][]testbed.Request
	for off := 0; off < len(reqs); {
		n := min(sweep.DefaultBatch, len(reqs)-off)
		if reqs[off].Op == testbed.OpSession {
			n = 1
		}
		out = append(out, reqs[off:off+n])
		off += n
	}
	return out
}

// replayRequestKeys times Request.Fingerprint and Request.ContentSeed
// per request.
func replayRequestKeys(r *result, reqs []testbed.Request, base int64) error {
	fp, err := perOp(len(reqs), func(i int) error {
		_, err := reqs[i].Fingerprint()
		return err
	})
	if err != nil {
		return fmt.Errorf("replay fingerprint: %w", err)
	}
	cs, err := perOp(len(reqs), func(i int) error {
		_, err := reqs[i].ContentSeed(base)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay content seed: %w", err)
	}
	r.addLayer("testbed.fingerprint_us", us(fp), "us", len(reqs))
	r.addLayer("testbed.content_seed_us", us(cs), "us", len(reqs))
	return nil
}

// rngSink keeps the replayed RNGs observable so the compiler cannot
// drop the seeding.
var rngSink float64

// replayRNG times stats.NewRNG on the requests' seeds.
func replayRNG(r *result, reqs []testbed.Request) {
	d, _ := perOp(len(reqs), func(i int) error {
		rngSink += stats.NewRNG(reqs[i].Seed).Float64()
		return nil
	})
	r.addLayer("stats.rng_seed_us", us(d), "us", len(reqs))
}

// replayExecute times Executor.DoBatch on measure requests in
// dispatcher-sized batches, per cell.
func replayExecute(ctx context.Context, r *result, reqs []testbed.Request) error {
	exec := testbed.NewExecutor(nil)
	bs := batches(reqs)
	d, err := perOp(len(bs), func(i int) error { return itemsErr(exec.DoBatch(ctx, bs[i])) })
	if err != nil {
		return fmt.Errorf("replay execute: %w", err)
	}
	r.addLayer("testbed.execute_us_per_cell", us(d)*float64(len(bs))/float64(len(reqs)), "us", len(reqs))
	return nil
}

// replaySessions times Executor.DoBatch on session requests, per user.
func replaySessions(ctx context.Context, r *result, reqs []testbed.Request) error {
	exec := testbed.NewExecutor(nil)
	users := 0
	for _, q := range reqs {
		users += q.Session.Users
	}
	d, err := perOp(len(reqs), func(i int) error {
		return itemsErr(exec.DoBatch(ctx, reqs[i:i+1]))
	})
	if err != nil {
		return fmt.Errorf("replay sessions: %w", err)
	}
	r.addLayer("testbed.session_ms_per_user", ms(d)*float64(len(reqs))/float64(users), "ms", users)
	return nil
}

func itemsErr(items []testbed.WireItem) error {
	for _, it := range items {
		if it.Err != "" {
			return errors.New(it.Err)
		}
	}
	return nil
}

// replayWire times the binary codec and the frame layer on the
// requests' batches and their answers, per cell: encode and decode of a
// WireBatch plus its WireBatchResult, then writing and reading both
// frames through a buffer.
func replayWire(ctx context.Context, r *result, reqs []testbed.Request) error {
	exec := testbed.NewExecutor(nil)
	type frames struct {
		batch testbed.WireBatch
		res   testbed.WireBatchResult
		b, rb []byte
	}
	var fs []frames
	wire := 0
	for i, b := range batches(reqs) {
		f := frames{batch: testbed.WireBatch{ID: i, Reqs: b}}
		f.res = testbed.WireBatchResult{ID: i, Items: exec.DoBatch(ctx, b)}
		var err error
		if f.b, err = testbed.EncodeBinary(f.batch); err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		if f.rb, err = testbed.EncodeBinary(f.res); err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		wire += len(f.b) + len(f.rb) + 8 // two 4-byte length prefixes
		fs = append(fs, f)
	}
	enc, err := perOp(len(fs), func(i int) error {
		if _, err := testbed.EncodeBinary(fs[i].batch); err != nil {
			return err
		}
		_, err := testbed.EncodeBinary(fs[i].res)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay encode: %w", err)
	}
	dec, err := perOp(len(fs), func(i int) error {
		var b testbed.WireBatch
		var res testbed.WireBatchResult
		if err := testbed.DecodeBinary(fs[i].b, &b); err != nil {
			return err
		}
		return testbed.DecodeBinary(fs[i].rb, &res)
	})
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	var buf bytes.Buffer
	fio, err := perOp(len(fs), func(i int) error {
		buf.Reset()
		if err := testbed.WriteRawFrame(&buf, fs[i].b); err != nil {
			return err
		}
		if err := testbed.WriteRawFrame(&buf, fs[i].rb); err != nil {
			return err
		}
		if _, err := testbed.ReadRawFrame(&buf); err != nil {
			return err
		}
		_, err := testbed.ReadRawFrame(&buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay frame io: %w", err)
	}
	perCell := float64(len(fs)) / float64(len(reqs))
	r.addLayer("testbed.encode_us_per_cell", us(enc)*perCell, "us", len(reqs))
	r.addLayer("testbed.decode_us_per_cell", us(dec)*perCell, "us", len(reqs))
	r.addLayer("testbed.wire_bytes_per_cell", float64(wire)/float64(len(reqs)), "B", len(reqs))
	r.addLayer("testbed.frame_io_us_per_cell", us(fio)*perCell, "us", len(reqs))
	return nil
}

// replayDispatch times NetRunner.Stream of the requests against two
// no-op fleet nodes, so the figure holds only dispatcher, codec and TCP
// cost, per cell.
func replayDispatch(ctx context.Context, r *result, reqs []testbed.Request) error {
	nodes, err := startNodes(ctx, 2, serveNoop)
	if err != nil {
		return err
	}
	defer nodes.stop()
	nr := &sweep.NetRunner{Nodes: nodes.addrs}
	defer nr.Close()
	discard := func(int, testbed.Measurement) error { return nil }
	if err := nr.Stream(ctx, reqs, discard); err != nil { // dial warm-up
		return fmt.Errorf("replay dispatch: %w", err)
	}
	d, err := perOp(1, func(int) error { return nr.Stream(ctx, reqs, discard) })
	if err != nil {
		return fmt.Errorf("replay dispatch: %w", err)
	}
	r.addLayer("sweep.dispatch_us_per_cell", us(d)/float64(len(reqs)), "us", len(reqs))
	return nil
}

// replayDisk times DiskCache.Put and DiskCache.Get (hits) of the
// measured cells in a scratch store under dir.
func replayDisk(r *result, reqs []testbed.Request, meas []testbed.Measurement, dir string) error {
	defer os.RemoveAll(dir)
	d, err := sweep.OpenDiskCache(dir)
	if err != nil {
		return err
	}
	fps := make([]string, len(reqs))
	for i, q := range reqs {
		if fps[i], err = q.Fingerprint(); err != nil {
			return err
		}
	}
	put, err := perOp(len(reqs), func(i int) error { return d.Put(fps[i], reqs[i].Seed, meas[i]) })
	if err != nil {
		return fmt.Errorf("replay disk put: %w", err)
	}
	get, err := perOp(len(reqs), func(i int) error {
		if _, ok := d.Get(fps[i], reqs[i].Seed); !ok {
			return fmt.Errorf("replay disk get: cell %d missing", i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.addLayer("sweep.disk_put_us", us(put), "us", len(reqs))
	r.addLayer("sweep.disk_get_us", us(get), "us", len(reqs))
	return nil
}

// replaySummaries times SessionSummary.Merge of the shard summaries
// into a fresh accumulator, and Sketch.Add of values spread over the
// summaries' latency range.
func replaySummaries(r *result, meas []testbed.Measurement) error {
	var sums []*testbed.SessionSummary
	for _, m := range meas {
		if m.Session != nil {
			sums = append(sums, m.Session)
		}
	}
	if len(sums) == 0 {
		return errors.New("replay summaries: no session summaries captured")
	}
	alpha := sums[0].Latency.Alpha
	acc := testbed.NewSessionSummary(alpha)
	merge, err := perOp(len(sums), func(i int) error {
		if i == 0 {
			acc = testbed.NewSessionSummary(alpha)
		}
		return acc.Merge(sums[i])
	})
	if err != nil {
		return fmt.Errorf("replay merge: %w", err)
	}
	var xs []float64
	for _, s := range sums {
		for q := 0.005; q < 1; q += 0.01 {
			v, err := s.Latency.Quantile(q)
			if err != nil {
				return err
			}
			xs = append(xs, v)
		}
	}
	sk := stats.NewSketch(alpha)
	add, err := perOp(len(xs), func(i int) error { return sk.Add(xs[i]) })
	if err != nil {
		return fmt.Errorf("replay sketch add: %w", err)
	}
	r.addLayer("testbed.summary_merge_us", us(merge), "us", len(sums))
	r.addLayer("stats.sketch_add_ns", float64(add), "ns", len(xs))
	return nil
}

// nodeSet is a group of in-process loopback fleet nodes.
type nodeSet struct {
	addrs  []string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startNodes starts n loopback nodes, each serving its listener with
// serve until stop.
func startNodes(ctx context.Context, n int, serve func(ctx context.Context, ln net.Listener) error) (*nodeSet, error) {
	nctx, cancel := context.WithCancel(ctx)
	ns := &nodeSet{cancel: cancel}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ns.stop()
			return nil, err
		}
		ns.addrs = append(ns.addrs, ln.Addr().String())
		ns.wg.Add(1)
		go func() {
			defer ns.wg.Done()
			_ = serve(nctx, ln)
		}()
	}
	return ns, nil
}

// stop shuts every node down and waits for them.
func (ns *nodeSet) stop() {
	ns.cancel()
	ns.wg.Wait()
}

// serveFleetNode runs a real measurement node.
func serveFleetNode(ctx context.Context, ln net.Listener) error {
	return testbed.ServeListener(ctx, ln, nil)
}

// serveNoop runs a fleet node that does no measurement work: it speaks
// the handshake and answers every WireBatch with zero-valued items, so a
// dispatcher driving it pays only for dispatch, codec and TCP.
func serveNoop(ctx context.Context, ln net.Listener) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	live := map[net.Conn]struct{}{}
	stop := context.AfterFunc(ctx, func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for c := range live {
			_ = c.Close()
		}
	})
	defer stop()
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		mu.Lock()
		live[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = noopConn(conn)
			mu.Lock()
			delete(live, conn)
			mu.Unlock()
			_ = conn.Close()
		}()
	}
}

// noopConn serves one dispatcher connection of a no-op node.
func noopConn(conn net.Conn) error {
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	if err := testbed.WriteFrame(bw, testbed.Hello()); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var start testbed.WireStart
	if err := testbed.ReadFrame(br, &start); err != nil {
		return err
	}
	codec := testbed.NormalizeCodec(start.Codec)
	for {
		var b testbed.WireBatch
		if err := testbed.ReadFrameCodec(br, codec, &b); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		res := testbed.WireBatchResult{ID: b.ID, Items: make([]testbed.WireItem, len(b.Reqs))}
		if err := testbed.WriteFrameCodec(bw, codec, res); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// replayFit times experiments.NewSuite — bench set-up plus the
// regression fit — for the workload's fit configuration.
func (r *result) replayFit(seed int64, train, test int) error {
	const reps = 3
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := experiments.NewSuite(seed, train, test); err != nil {
			return fmt.Errorf("replay fit: %w", err)
		}
		times = append(times, ms(time.Since(start)))
	}
	r.addLayer("experiments.fit_ms", median(times), "ms", reps)
	return nil
}
