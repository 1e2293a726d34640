package sweep

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testbed"
)

// startServeNode runs a real worker-fleet node (testbed.ServeListener)
// on a loopback listener for the test's lifetime.
func startServeNode(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = testbed.ServeListener(ctx, ln, nil)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("serve node did not shut down")
		}
	})
	return ln.Addr().String()
}

// startRawNode runs a hand-rolled node whose per-connection behaviour is
// supplied by the test — the tool for simulating crashes, version skew,
// and protocol abuse.
func startRawNode(t *testing.T, handle func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				handle(conn)
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestNetRunnerMatchesPool pins the tentpole invariant at the runner
// layer: serve nodes across a TCP boundary reproduce the in-process pool
// bit for bit, and connections persist across calls on one runner.
func TestNetRunnerMatchesPool(t *testing.T) {
	reqs := testRequests(t, 4)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	nr := &NetRunner{Nodes: []string{startServeNode(t), startServeNode(t)}, ConnsPerNode: 2}
	defer nr.Close()
	got, err := nr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverges across the network boundary:\npool %+v\nnet  %+v", i, want[i], got[i])
		}
	}

	// Second round on the same runner: idle connections are reused and
	// streaming delivery stays prefix-ordered.
	next := 0
	err = nr.Stream(context.Background(), reqs, func(idx int, m testbed.Measurement) error {
		if idx != next {
			return fmt.Errorf("emitted %d, want %d", idx, next)
		}
		if m != want[idx] {
			return fmt.Errorf("round 2 point %d diverges", idx)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(reqs) {
		t.Fatalf("round 2 emitted %d of %d", next, len(reqs))
	}
}

// dyingFirst is a membership feed that lists only the dying node until
// it has swallowed a batch, then admits the healthy node too, so the
// healthy node cannot drain the grid before the fault fires.
type dyingFirst struct {
	dying, healthy string
	swallowed      chan struct{} // closed once the dying node has read a batch
}

func (m *dyingFirst) Snapshot() ([]string, uint64) {
	select {
	case <-m.swallowed:
		return []string{m.dying, m.healthy}, 2
	default:
		return []string{m.dying}, 1
	}
}

func (m *dyingFirst) Changed(gen uint64) <-chan struct{} {
	if gen >= 2 {
		return nil
	}
	return m.swallowed
}

// TestNetRunnerRedispatchOnNodeDeath pins crash recovery: a node that
// dies mid-frame — accepts the request, never answers, drops the
// connection — must not fail the sweep; its shards are re-dispatched to
// the healthy node and the results stay byte-identical to the pool
// backend.
func TestNetRunnerRedispatchOnNodeDeath(t *testing.T) {
	reqs := testRequests(t, 4)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	var killed atomic.Int64
	var once sync.Once
	members := &dyingFirst{swallowed: make(chan struct{})}
	members.dying = startRawNode(t, func(conn net.Conn) {
		if err := testbed.WriteFrame(conn, testbed.Hello()); err != nil {
			return
		}
		br := bufio.NewReader(conn)
		var start testbed.WireStart
		if err := testbed.ReadFrame(br, &start); err != nil {
			return
		}
		var b testbed.WireBatch
		if err := testbed.ReadBinaryFrame(br, &b); err == nil {
			killed.Add(1)
			once.Do(func() { close(members.swallowed) })
		}
		// Die mid-shard: the dispatcher is left awaiting a response.
	})
	members.healthy = startServeNode(t)
	nr := &NetRunner{Members: members, ConnsPerNode: 1}
	defer nr.Close()

	got, err := nr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatalf("fleet with one dying node must still complete: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverges after re-dispatch", i)
		}
	}
	if killed.Load() == 0 {
		t.Fatal("flaky node was never exercised; the test proved nothing")
	}
}

// TestNetRunnerHandshakeMismatchRejected pins the version gate: a node
// built from a different protocol or physics version is rejected with a
// clear error — alone it fails the sweep, in a mixed fleet it is
// poisoned and routed around.
func TestNetRunnerHandshakeMismatchRejected(t *testing.T) {
	skew := startRawNode(t, func(conn net.Conn) {
		_ = testbed.WriteFrame(conn, testbed.WireHello{
			Protocol: testbed.ProtocolVersion + 1,
			Physics:  testbed.PhysicsVersion,
		})
	})
	reqs := testRequests(t, 2)

	alone := &NetRunner{Nodes: []string{skew}}
	defer alone.Close()
	_, err := alone.Run(context.Background(), reqs)
	if !errors.Is(err, testbed.ErrVersionMismatch) {
		t.Fatalf("mismatched fleet error = %v, want ErrVersionMismatch", err)
	}
	for _, want := range []string{skew, "protocol", "rejected"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error missing %q: %v", want, err)
		}
	}

	mixed := &NetRunner{Nodes: []string{skew, startServeNode(t)}}
	defer mixed.Close()
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mixed.Run(context.Background(), reqs)
	if err != nil {
		t.Fatalf("mixed fleet must route around the mismatched node: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mixed-fleet point %d diverges", i)
		}
	}
}

// startV2Node runs a node from the protocol-2 era, when batch frames
// could travel as JSON: it leads with that protocol's hello and
// nothing else.
func startV2Node(t *testing.T) string {
	t.Helper()
	return startRawNode(t, func(conn net.Conn) {
		_ = testbed.WriteFrame(conn, testbed.WireHello{Protocol: 2, Physics: testbed.PhysicsVersion})
	})
}

// TestNetRunnerMixedCodecFleet pins the upgrade path of a fleet that
// still holds a protocol-2 node, the last protocol whose batches could
// travel as JSON: the stale node is rejected at the hello and routed
// around, and the measurements stay bit-identical to the in-process
// pool — the codec never shows in the output.
func TestNetRunnerMixedCodecFleet(t *testing.T) {
	reqs := testRequests(t, 4)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	nr := &NetRunner{
		Nodes:        []string{startServeNode(t), startV2Node(t), startServeNode(t)},
		ConnsPerNode: 1,
		Batch:        2,
	}
	defer nr.Close()
	got, err := nr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatalf("fleet with a protocol-2 node failed: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mixed-fleet point %d diverges from pool", i)
		}
	}
}

// TestNetRunnerForcedCodecMismatch pins the binary-only gate: the
// dispatcher cannot be talked down to JSON batch frames, so a fleet of
// protocol-2 nodes fails with a version mismatch naming the node and
// both protocols instead of negotiating.
func TestNetRunnerForcedCodecMismatch(t *testing.T) {
	old := startV2Node(t)
	nr := &NetRunner{Nodes: []string{old}}
	defer nr.Close()
	_, err := nr.Run(context.Background(), testRequests(t, 2))
	if !errors.Is(err, testbed.ErrVersionMismatch) {
		t.Fatalf("protocol-2 fleet error = %v, want ErrVersionMismatch", err)
	}
	for _, want := range []string{old, "protocol 2", fmt.Sprintf("speaks %d", testbed.ProtocolVersion), "rejected"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error missing %q: %v", want, err)
		}
	}
}

// TestPickNodeAvoidsFailedNode pins retry steering: a batch's retry
// passes over the node it last died on while another node is usable,
// and falls back to it when it is the only one.
func TestPickNodeAvoidsFailedNode(t *testing.T) {
	nr := &NetRunner{Nodes: []string{"127.0.0.1:1", "127.0.0.1:2"}}
	defer nr.Close()
	if err := nr.init(); err != nil {
		t.Fatal(err)
	}
	nodes := nr.memberView()
	for i := 0; i < 4; i++ {
		nd, _, err := nr.pickNode(nodes[0])
		if err != nil || nd != nodes[1] {
			t.Fatalf("pick %d avoiding %s = %v, %v", i, nodes[0].addr, nd, err)
		}
	}
	nodes[1].health.poisonWith(testbed.ErrVersionMismatch)
	if nd, _, err := nr.pickNode(nodes[0]); err != nil || nd != nodes[0] {
		t.Fatalf("sole usable node was not picked: %v, %v", nd, err)
	}
}

// TestNetRunnerCancelMidShard pins mid-shard cancelation: canceling the
// context while shards are awaiting node responses must close the
// in-flight connections — observed from the node side — and return
// promptly with context.Canceled, never hang on a socket.
func TestNetRunnerCancelMidShard(t *testing.T) {
	reqs := testRequests(t, 2)
	unblocked := make(chan struct{}, len(reqs))
	slow := startRawNode(t, func(conn net.Conn) {
		if err := testbed.WriteFrame(conn, testbed.Hello()); err != nil {
			return
		}
		br := bufio.NewReader(conn)
		var start testbed.WireStart
		if err := testbed.ReadFrame(br, &start); err != nil {
			return
		}
		// Simulate a node stuck in a long measurement: accept batches,
		// never answer, block until the dispatcher closes the connection.
		got := false
		for {
			var b testbed.WireBatch
			if err := testbed.ReadBinaryFrame(br, &b); err != nil {
				break
			}
			got = true
		}
		if got {
			unblocked <- struct{}{}
		}
	})
	nr := &NetRunner{Nodes: []string{slow}, ConnsPerNode: 2}
	defer nr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { _, err := nr.Run(ctx, reqs); done <- err }()
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("cancelation took %v", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung after mid-shard cancelation")
	}
	select {
	case <-unblocked:
		// The dispatcher closed its connection; the node saw it.
	case <-time.After(5 * time.Second):
		t.Fatal("cancelation did not close the in-flight connection")
	}
}

// TestNetRunnerRecoversAfterRequestError checks that a request-level
// failure reported by a healthy node surfaces once — deterministic
// rejections are never re-dispatched — and the runner keeps working.
func TestNetRunnerRecoversAfterRequestError(t *testing.T) {
	good := testRequests(t, 2)
	bad := make([]testbed.Request, len(good))
	copy(bad, good)
	bad[1].Trials = 0
	nr := &NetRunner{Nodes: []string{startServeNode(t)}}
	defer nr.Close()

	if _, err := nr.Run(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "trial count") {
		t.Fatalf("bad request error = %v", err)
	}
	if _, err := nr.Run(context.Background(), good); err != nil {
		t.Fatalf("runner did not recover: %v", err)
	}
}

// TestNetRunnerRejectsUnserializable checks the wire-safety gate shared
// with the proc backend.
func TestNetRunnerRejectsUnserializable(t *testing.T) {
	reqs := testRequests(t, 2)
	reqs[1].Scenario.EdgeLink.Loss = pathLossStub{}
	nr := &NetRunner{Nodes: []string{startServeNode(t)}}
	defer nr.Close()
	_, err := nr.Run(context.Background(), reqs)
	if !errors.Is(err, testbed.ErrRequest) || !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("unserializable request error = %v", err)
	}
}

// TestNetRunnerConfigErrors covers the fail-fast configuration paths: a
// fleet without nodes, a fleet that is entirely unreachable, and use
// after Close.
func TestNetRunnerConfigErrors(t *testing.T) {
	reqs := testRequests(t, 2)[:1]

	empty := &NetRunner{}
	if _, err := empty.Run(context.Background(), reqs); err == nil || !strings.Contains(err.Error(), "node address") {
		t.Fatalf("empty fleet error = %v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // connection refused from here on
	down := &NetRunner{Nodes: []string{dead}, DialTimeout: time.Second}
	defer down.Close()
	if _, err := down.Run(context.Background(), reqs); err == nil || !strings.Contains(err.Error(), "dispatch attempts") {
		t.Fatalf("unreachable fleet error = %v", err)
	}

	nr := &NetRunner{Nodes: []string{startServeNode(t)}}
	if _, err := nr.Run(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if err := nr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := nr.Run(context.Background(), reqs); !errors.Is(err, ErrRunnerClosed) {
		t.Fatalf("run after Close = %v, want ErrRunnerClosed", err)
	}
}

// TestSourceHealthQuarantineAndBackoff pins the shared lifecycle
// policy: quarantine starts at the threshold, backs off exponentially to
// the cap, heals on success, and poison is permanent with the first
// reason sticking.
func TestSourceHealthQuarantineAndBackoff(t *testing.T) {
	var h sourceHealth
	now := time.Now()
	for i := 0; i < quarantineAfter-1; i++ {
		h.failure(now, nil)
	}
	if w := h.quarantinedFor(now); w != 0 {
		t.Fatalf("quarantined after %d failures: %v", quarantineAfter-1, w)
	}
	h.failure(now, nil)
	first := h.quarantinedFor(now)
	if first <= 0 || first > backoffBase {
		t.Fatalf("first quarantine window = %v, want (0, %v]", first, backoffBase)
	}
	h.failure(now, nil)
	if second := h.quarantinedFor(now); second <= first {
		t.Fatalf("backoff did not grow: %v then %v", first, second)
	}
	for i := 0; i < 40; i++ {
		h.failure(now, nil)
	}
	if w := h.quarantinedFor(now); w > backoffMax {
		t.Fatalf("backoff exceeded cap: %v > %v", w, backoffMax)
	}
	if w := h.quarantinedFor(now.Add(2 * backoffMax)); w != 0 {
		t.Fatalf("quarantine did not expire: %v", w)
	}
	h.success()
	h.failure(now, nil)
	if w := h.quarantinedFor(now); w != 0 {
		t.Fatal("success did not reset the failure streak")
	}

	h.poisonWith(errors.New("first"))
	h.poisonWith(errors.New("second"))
	if err := h.poisoned(); err == nil || err.Error() != "first" {
		t.Fatalf("poison reason = %v, want the first to stick", err)
	}
}
