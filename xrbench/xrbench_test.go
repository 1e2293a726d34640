package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if got := minJobsFor(0.9); got != 100 {
		t.Fatalf("minJobsFor(0.9) = %d, want 100", got)
	}
	if got := minJobsFor(0.5); got != 20 {
		t.Fatalf("minJobsFor(0.5) = %d, want 20", got)
	}
	for n := 1; n < 100; n++ {
		if beyond(n, 0.9) >= minTail {
			t.Fatalf("beyond(%d, 0.9) = %d: p90 would pass the tail rule with fewer than 100 samples", n, beyond(n, 0.9))
		}
	}
	for _, n := range []int{100, 101, 150, 1000} {
		if beyond(n, 0.9) < minTail {
			t.Fatalf("beyond(%d, 0.9) = %d, want >= %d", n, beyond(n, 0.9), minTail)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // descending: percentile must sort
	}
	s := sortedCopy(v)
	if p := percentile(s, 0.5); p != 50 {
		t.Fatalf("p50 of 1..100 = %v, want 50", p)
	}
	if p := percentile(s, 0.9); p != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", p)
	}
	if above := len(s) - 90; above != beyond(len(s), 0.9) {
		t.Fatalf("beyond disagrees with percentile: %d vs %d", above, beyond(len(s), 0.9))
	}
}

func TestMidMeanIgnoresOutlyingQuarters(t *testing.T) {
	v := []float64{1, 10, 10, 10, 10, 10, 10, 1000} // quarters: 2 low, 2 high
	if got := midMean(v); got != 10 {
		t.Fatalf("midMean = %v, want 10: the outer quarters must not count", got)
	}
	if got := midMean([]float64{2, 4}); got != 3 {
		t.Fatalf("midMean of 2 values = %v, want their mean 3", got)
	}
	if got := midMean(nil); got != 0 {
		t.Fatalf("midMean(nil) = %v, want 0", got)
	}
}

func TestInputsAreDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(gridInputs(7), gridInputs(7)) {
		t.Fatal("grid_net inputs differ for one seed")
	}
	if gridInputs(7).SuiteSeed == gridInputs(8).SuiteSeed {
		t.Fatal("grid_net inputs ignore the seed")
	}
	if g := gridInputs(7).Grid; g.Size() != 2640 {
		t.Fatalf("grid_net grid has %d points, want 2640", g.Size())
	}
	if !reflect.DeepEqual(popInputs(7), popInputs(7)) {
		t.Fatal("population_proc inputs differ for one seed")
	}
	if popInputs(7).Params.Seed == popInputs(8).Params.Seed {
		t.Fatal("population_proc inputs ignore the seed")
	}
	a, b := serverInputs(7), serverInputs(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("server_mixed inputs differ for one seed")
	}
	if a.Report.Spec.Seed == serverInputs(8).Report.Spec.Seed {
		t.Fatal("server_mixed inputs ignore the seed")
	}
	seen := map[int64]bool{a.Report.Spec.Seed: true}
	for k := int64(1); k <= 1000; k++ {
		w := a.writeJob(k)
		if !reflect.DeepEqual(w, b.writeJob(k)) {
			t.Fatalf("write job %d differs for one seed", k)
		}
		if seen[w.Spec.Seed] {
			t.Fatalf("write job %d reuses seed %d: it would hit the cache", k, w.Spec.Seed)
		}
		seen[w.Spec.Seed] = true
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if g, err := a.ReadSweep.Grid.Build(); err != nil || g.Size() != 240 {
		t.Fatalf("server_mixed sweep: %d points, %v; want 240", g.Size(), err)
	}
}

func TestDigestCatchesOneByteChange(t *testing.T) {
	out := []byte("point  GT(ms) model(ms)\nXR1/local 12.5 12.4\n")
	want := digest(out)
	for i := range out {
		changed := append([]byte(nil), out...)
		changed[i] ^= 1
		if digest(changed) == want {
			t.Fatalf("digest misses a change at byte %d", i)
		}
	}

	// A one-ulp change to one measured value of a real grid result
	// changes its digest, and the job check counts it as a failure.
	s, err := experiments.NewSuite(3, 500, 200)
	if err != nil {
		t.Fatal(err)
	}
	s.Trials = 2
	s.Runner = &sweep.PoolRunner{Workers: 1}
	dev, err := device.ByName("XR1")
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.RunGrid(context.Background(), sweep.Grid{
		Devices:    []device.Device{dev},
		Modes:      []pipeline.InferenceMode{pipeline.ModeLocal},
		FrameSizes: []float64{300, 400},
		CPUFreqs:   []float64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	good, err := gridDigest(g)
	if err != nil {
		t.Fatal(err)
	}
	g.Points[1].EnergyGTMJ = math.Nextafter(g.Points[1].EnergyGTMJ, math.Inf(1))
	bad, err := gridDigest(g)
	if err != nil {
		t.Fatal(err)
	}
	if bad == good {
		t.Fatal("grid digest misses a one-ulp change")
	}
	var r result
	r.checkPhases([]phase{{samples: []sample{{kind: "grid", digest: good}, {kind: "grid", digest: bad}}}},
		func(sample) string { return good })
	if r.Attempted != 2 || r.Failed != 1 {
		t.Fatalf("check counted %d failed of %d, want 1 of 2", r.Failed, r.Attempted)
	}
}

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanJob, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanCache, Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: spanBackend, Start: 20, End: 60},
		{ID: 4, Parent: 2, Name: spanEmit, Start: 50, End: 55}, // overlaps backend
		{ID: 5, Parent: 2, Name: spanEmit, Start: 70, End: 80},
	}
	got := selfTimes(spans)
	want := map[spanName]int64{spanJob: 20, spanCache: 30, spanBackend: 40, spanEmit: 15}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

func TestNoopNodeAnswersEveryRequest(t *testing.T) {
	ctx := context.Background()
	nodes, err := startNodes(ctx, 2, serveNoop)
	if err != nil {
		t.Fatal(err)
	}
	defer nodes.stop()
	nr := &sweep.NetRunner{Nodes: nodes.addrs}
	defer nr.Close()
	dev, err := device.ByName("XR2")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := pipeline.NewScenario(dev)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]testbed.Request, 40)
	for i := range reqs {
		reqs[i] = testbed.Request{Scenario: sc, Trials: 1, Seed: int64(i)}
	}
	n := 0
	err = nr.Stream(ctx, reqs, func(i int, m testbed.Measurement) error {
		if i != n || m != (testbed.Measurement{}) {
			t.Errorf("emit %d: index %d, measurement %+v", n, i, m)
		}
		n++
		return nil
	})
	if err != nil || n != len(reqs) {
		t.Fatalf("dispatch to no-op nodes: %d of %d answered, %v", n, len(reqs), err)
	}
}

func TestBenchmarkManifestMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("manifest workloads %v, benchmark workloads %v", names, workloadNames())
	}
	if len(manifest.PerLayer) != len(layers) {
		t.Fatalf("manifest lists %d per-layer metrics, the benchmark reports %d", len(manifest.PerLayer), len(layers))
	}
	for i, m := range manifest.PerLayer {
		l := layers[i]
		better := "lower"
		if l.higher {
			better = "higher"
		}
		if m.Name != l.name || m.Unit != l.unit || m.Better != better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %s %s %s", i, m, l.name, l.unit, better)
		}
	}
	var r result
	r.endToEnd([]float64{1}, phase{clients: 1, samples: []sample{{ms: 1}}}, true)
	gated := map[string]string{}
	for _, m := range r.Metrics {
		if m.Gated {
			gated[m.Name] = m.Unit
		}
	}
	if len(gated) != len(manifest.EndToEnd) {
		t.Fatalf("benchmark gates %d end-to-end metrics, manifest lists %d", len(gated), len(manifest.EndToEnd))
	}
	for _, m := range manifest.EndToEnd {
		if gated[m.Name] != m.Unit {
			t.Errorf("end_to_end %s: manifest unit %q, benchmark unit %q", m.Name, m.Unit, gated[m.Name])
		}
	}
}
