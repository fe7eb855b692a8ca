// Command perfbench is the ghosts benchmark. It runs one workload — the
// batch reproduction, the served estimate behind a fleet router, or the
// streaming replay — from a seed, checks every output against a reference
// computation, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": 330, "failed": 0, "metrics": {"p50_ms": {"value": 1291.4, "unit": "ms"}, ...}}
//
// A "meta" line before it records the commit, Go version, GOMAXPROCS, host
// CPUs, warm/cold state and the sample count behind every reported median
// and percentile. README.md lists the metrics and the workload rationale.
//
//	bash perfbench/run.sh --workload batch --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back to main: the result plus the
// metadata that qualifies it.
type outcome struct {
	result
	// samples is the sample count behind each reported median or
	// percentile, keyed by metric name.
	samples map[string]int
	// params records the workload's input parameters (sizes, rates,
	// limits) so runs are compared only with like.
	params map[string]any
	spans  []span
}

func newOutcome() *outcome {
	return &outcome{
		result:  result{Metrics: map[string]metric{}},
		samples: map[string]int{},
		params:  map[string]any{},
	}
}

func (o *outcome) set(name, unit string, v float64, samples int) {
	o.Metrics[name] = metric{Value: v, Unit: unit}
	if samples > 0 {
		o.samples[name] = samples
	}
}

// check counts one output comparison.
func (o *outcome) check(ok bool) {
	o.Attempted++
	if !ok {
		o.Failed++
	}
}

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
}

type workload func(ctx context.Context, cfg config) (*outcome, error)

var workloads = map[string]workload{
	"batch": func(ctx context.Context, cfg config) (*outcome, error) { return runBatch(ctx, cfg, batchOpts{}) },
	"serve": func(ctx context.Context, cfg config) (*outcome, error) { return runServe(ctx, cfg, defaultServeOpts()) },
	"stream": func(ctx context.Context, cfg config) (*outcome, error) {
		return runStream(ctx, cfg, defaultStreamOpts())
	},
}

func main() {
	name := flag.String("workload", "", "workload to run: batch, serve or stream")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "measured time of one run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	traceOut := flag.String("trace-out", "", "span file written by a traced run (default .bench_build/perfbench/spans-<workload>-<seed>.jsonl)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload batch|serve|stream, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.trace {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		}
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		out.params["span_file"] = path
	}
	// An untraced run reports the end-to-end metrics; a traced one every
	// per-layer metric its workload measures, and 0 for the rest.
	if cfg.trace {
		if err = complete(out, measuredBy(*name), false); err == nil {
			err = complete(out, perLayer, true)
		}
	} else {
		err = complete(out, endToEnd, false)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for k, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", k)
			os.Exit(1)
		}
	}
	out.Correct = out.Failed == 0
	meta := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      cfg.trace,
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpus":       runtime.NumCPU(),
		// Every workload discards its first operation (the reference
		// computation runs first and warms code paths, pools and caches);
		// only set-up is timed cold.
		"state":   "warm",
		"samples": out.samples,
		"params":  out.params,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(out.result); err != nil {
		os.Exit(1)
	}
}

// commit returns the VCS revision the binary was built from, or "unknown"
// when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// partP99 cuts xs, in the order measured, into as many consecutive parts
// of at least minPart samples as it holds (one at least) and returns the
// median of the parts' p99s and the number of parts. A burst of
// interference from outside the benchmark then moves one part's p99, not
// the reported value; minPart ≥ 1000 keeps 10 samples beyond each p99.
func partP99(xs []float64, minPart int) (float64, int) {
	k := max(1, len(xs)/minPart)
	var p99s []float64
	for j := 0; j < k; j++ {
		p99s = append(p99s, quantile(xs[j*len(xs)/k:(j+1)*len(xs)/k], 0.99))
	}
	return median(p99s), k
}

// positionTail returns the q-quantile over positions of each position's
// median across repetitions, and the number of positions. byPos[k] holds
// the k-th timed operation of every repetition of a sequence that runs the
// same operations in the same order each time, so a position's median is
// that operation's cost with interference from outside the benchmark
// filtered out, and the quantile over positions is the workload's own
// tail.
func positionTail(byPos [][]float64, q float64) (float64, int) {
	var meds []float64
	for _, xs := range byPos {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return quantile(meds, q), len(meds)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// settle collects the garbage a previous unit of work left behind, so
// every timed unit starts from the same heap state.
func settle() { runtime.GC() }

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
