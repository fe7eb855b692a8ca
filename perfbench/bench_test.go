package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"ghosts/internal/ingest"
	"ghosts/internal/rng"
	"ghosts/internal/serve"
)

func smallBatch() batchOpts { return batchOpts{setups: 1, minPass: 1} }

func smallServe() serveOpts {
	return serveOpts{
		corpus: 64, zipfS: 1.1, tailShare: 0.2, warmup: 50, nominal: 200,
		cacheSize: 8, setups: 1,
	}
}

func smallStream() streamOpts {
	o := defaultStreamOpts()
	o.events, o.hosts, o.span, o.setups, o.minReplays = 4000, 300, 4*time.Minute, 1, 1
	return o
}

// mayReadZero are the per-layer metrics that count rare events — retries,
// sheds, gaps, non-convergence, coalescing and peer fills, none of which
// a healthy run needs — and so may read 0 at smoke size.
var mayReadZero = map[string]bool{
	"stats.nonconverged": true, "fleet.retries": true, "serve.coalesced": true,
	"serve.peer_fill_ms": true, "serve.peer_fill_hit_ratio": true, "serve.queue_depth_max": true,
	"serve.shed": true, "wire.malformed": true, "watch.shed": true,
}

// smoke runs a workload at minimal size and checks that it passes its
// own output checks and reports every end-to-end metric untraced and
// every per-layer metric it measures traced, with no filling in; each of
// those must have moved off 0 unless it counts a rare event.
func smoke(t *testing.T, name string, run func(config) (*outcome, error)) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		o, err := run(config{seed: 3, seconds: 0.2, trace: traced})
		if err != nil {
			t.Fatalf("trace=%v: %v", traced, err)
		}
		if o.Attempted == 0 || o.Failed != 0 {
			t.Fatalf("trace=%v: %d of %d checks failed", traced, o.Failed, o.Attempted)
		}
		defs := endToEnd
		if traced {
			defs = measuredBy(name)
		}
		if err := complete(o, defs, false); err != nil {
			t.Fatalf("trace=%v: %v", traced, err)
		}
		for _, d := range defs {
			if o.Metrics[d.name].Value == 0 && !mayReadZero[d.name] {
				t.Errorf("trace=%v: %s reads 0", traced, d.name)
			}
		}
	}
}

func TestSmokeBatch(t *testing.T) {
	smoke(t, "batch", func(cfg config) (*outcome, error) { return runBatch(context.Background(), cfg, smallBatch()) })
}

func TestSmokeServe(t *testing.T) {
	smoke(t, "serve", func(cfg config) (*outcome, error) { return runServe(context.Background(), cfg, smallServe()) })
}

func TestSmokeStream(t *testing.T) {
	smoke(t, "stream", func(cfg config) (*outcome, error) { return runStream(context.Background(), cfg, smallStream()) })
}

// TestChecksFire shows each workload's output check counts a wrong output
// as a failure: a perturbed N̂, a corrupted body byte and a dropped tick.
func TestChecksFire(t *testing.T) {
	ctx := context.Background()
	cfg := config{seed: 3, seconds: 0.1}
	b := smallBatch()
	b.perturb = func(p *passOut) { p.ests[0].n = math.Nextafter(p.ests[0].n, math.Inf(1)) }
	s := smallServe()
	s.corrupt = true
	st := smallStream()
	st.dropTick = true
	for name, run := range map[string]func() (*outcome, error){
		"batch":  func() (*outcome, error) { return runBatch(ctx, cfg, b) },
		"serve":  func() (*outcome, error) { return runServe(ctx, cfg, s) },
		"stream": func() (*outcome, error) { return runStream(ctx, cfg, st) },
	} {
		o, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Failed == 0 {
			t.Errorf("%s: a wrong output passed the check (%d checks)", name, o.Attempted)
		}
	}
}

// TestComposedReplayMatchesRebuild pins the composed replay's tick series
// to the pipeline's set-rebuild reference path on the same bytes.
func TestComposedReplayMatchesRebuild(t *testing.T) {
	o := smallStream()
	capture, err := makeCapture(5, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayComposed(capture, o, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	cfg := o.pipelineConfig(func(tk *ingest.Tick) { want = append(want, tk.Encode()) })
	cfg.Rebuild = true
	st, err := ingest.Replay(bytes.NewReader(capture), ingest.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if int64(got.packets) != st.Packets || int64(got.malformed) != st.Malformed {
		t.Fatalf("composed replay read %d packets (%d malformed), ingest.Replay %d (%d)", got.packets, got.malformed, st.Packets, st.Malformed)
	}
	if len(want) < 10 || len(got.ticks) != len(want) {
		t.Fatalf("composed replay fired %d ticks, rebuild replay %d", len(got.ticks), len(want))
	}
	for i := range want {
		if !bytes.Equal(got.ticks[i].Encode(), want[i]) {
			t.Fatalf("tick %d differs:\ncomposed %s\nrebuild  %s", i+1, got.ticks[i].Encode(), want[i])
		}
	}
}

// TestCorpusEstimates: every table of the serve corpus estimates, so the
// workload has no failing operation by construction.
func TestCorpusEstimates(t *testing.T) {
	o := defaultServeOpts()
	for i, e := range makeCorpus(rng.New(corpusSeed), o.corpus, o.tailShare) {
		var req serve.EstimateRequest
		if err := json.Unmarshal(e.body, &req); err != nil {
			t.Fatal(err)
		}
		if err := req.Normalize(); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if _, err := serve.Compute(context.Background(), &req); err != nil {
			t.Fatalf("entry %d (t=%d): %v", i, e.t, err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 30, 5: 5}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %v, want %v", id, got[id], w)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.9); math.Abs(q-4.6) > 1e-12 {
		t.Errorf("p90 %v, want 4.6", q)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables here in
// step: the same workloads, and the same metrics with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, have)
		}
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", c.what, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.what, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
