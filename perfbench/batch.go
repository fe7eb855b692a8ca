package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"ghosts/internal/core"
	"ghosts/internal/crossval"
	"ghosts/internal/dataset"
	"ghosts/internal/experiments"
	"ghosts/internal/ipset"
	"ghosts/internal/parallel"
	"ghosts/internal/report"
	"ghosts/internal/sources"
	"ghosts/internal/telemetry"
	"ghosts/internal/universe"
)

// batchOpts sizes the batch workload. The zero value is the benchmark's
// workload; tests shrink it.
type batchOpts struct {
	setups  int // set-ups timed per run; 0 = 3 (1 in a traced run)
	minPass int // fewest timed passes; 0 = 3
	// perturb, when set, alters each pass's output before it is checked
	// (tests use it to show the check fires).
	perturb func(*passOut)
}

// batchTable is one estimation input: a window's nine source sets at one
// granularity, with the routed-space size that truncates the estimate.
type batchTable struct {
	label string
	sets  []*ipset.Set
	names []string
	limit float64
}

// cvInput is one cross-validation input: a window's sets at one
// granularity.
type cvInput struct {
	label string
	names []sources.Name
	sets  []*ipset.Set
}

// batchInputs is everything set-up collects: the environment (whose
// bundles hold the sets) and the per-pass inputs drawn from it. tables
// alternates granularities: window w's addresses at 2w, its /24s at 2w+1.
type batchInputs struct {
	env    *experiments.Env
	tables []batchTable
	cv     []cvInput
}

// estOut is one window estimate. A window that does not estimate reads
// its observed count with no interval, as experiments.Env.Estimates
// reports it.
type estOut struct{ n, lo, hi float64 }

// passOut is everything one pass produces.
type passOut struct {
	ests     []estOut
	cv       [][]crossval.SourceResult
	rendered []byte
	winTimes []time.Duration // one estimate per table
}

// universeSeed fixes the simulated address space, so every run estimates
// the same universe and costs the same work; the run's seed draws the
// nine sources' observations of it.
const universeSeed = 1

// collectBatch is the batch set-up: simulate the universe, collect every
// window's bundle with its /24 projection, and lay out the pass inputs.
// Windows collect concurrently, as experiments.Env.Estimates does.
func collectBatch(seed uint64) *batchInputs {
	env := experiments.New(universe.TinyConfig(universeSeed), seed)
	bundles := make([]*dataset.Bundle, len(env.Win))
	parallel.ForEach(len(bundles), func(i int) {
		b := env.Bundle(i, dataset.DefaultOptions())
		b.Sets24()
		bundles[i] = b
	})
	in := &batchInputs{env: env}
	for i, b := range bundles {
		label := b.Window.Label()
		in.tables = append(in.tables,
			batchTable{label + " addrs", b.Sets, b.NameStrings(), float64(b.RoutedAddrs)},
			batchTable{label + " /24s", b.Sets24(), b.NameStrings(), float64(b.Routed24)})
		// Cross-validation runs on alternate windows, as Table 3 does at
		// stride 2.
		if i%2 == 1 {
			in.cv = append(in.cv,
				cvInput{label + " addrs", b.Names, b.Sets},
				cvInput{label + " /24s", b.Names, b.Sets24()})
		}
	}
	return in
}

// cvEstimator is the cross-validation setting BIC-adaptive1000 with the
// catalogue's term and order caps.
func (in *batchInputs) cvEstimator() *core.Estimator {
	est := core.NewEstimator(core.BIC, core.Adaptive1000, math.Inf(1))
	est.MaxTerms = in.env.MaxTerms
	est.MaxOrder = in.env.MaxOrder
	return est
}

// fold builds every table's capture histogram concurrently, as phase 1
// of experiments.Env.Estimates does.
func (in *batchInputs) fold() []*core.Table {
	tbs := make([]*core.Table, len(in.tables))
	parallel.ForEach(len(in.tables), func(i int) {
		tbs[i] = core.TableFromSets(in.tables[i].sets, in.tables[i].names)
	})
	return tbs
}

// sweep estimates every table the way experiments.Env.Estimates does:
// windows in order through Estimator.EstimateSweep, each granularity's
// final fit warm-started from its previous window's.
func (in *batchInputs) sweep(tbs []*core.Table, out *passOut) {
	var warm [2]*core.FitResult
	for i, bt := range in.tables {
		t0 := time.Now()
		res, fit, err := in.env.Estimator(bt.limit).EstimateSweep(tbs[i], warm[i%2])
		if err == nil {
			out.ests[i] = estOut{res.N, res.Interval.Lo, res.Interval.Hi}
		} else {
			out.ests[i] = estOut{n: float64(tbs[i].Observed())}
			fit = nil
		}
		warm[i%2] = fit
		out.winTimes[i] = time.Since(t0)
	}
}

// coldEst is one table's cold estimate through Estimator.EstimateCtx,
// with the count divisor the estimator resolved for it.
type coldEst struct {
	est     estOut
	divisor float64
}

// coldReference estimates every table through Estimator.EstimateCtx
// under the catalogue's settings, with no warm start: the reference the
// traced pass's split pipeline must reproduce.
func (in *batchInputs) coldReference(ctx context.Context) ([]coldEst, error) {
	tbs := in.fold()
	out := make([]coldEst, len(tbs))
	for i, bt := range in.tables {
		res, err := in.env.Estimator(bt.limit).EstimateCtx(ctx, tbs[i])
		switch {
		case err == nil:
			out[i] = coldEst{estOut{res.N, res.Interval.Lo, res.Interval.Hi}, res.Divisor}
		case ctx.Err() != nil:
			return nil, err
		default:
			out[i] = coldEst{est: estOut{n: float64(tbs[i].Observed())}}
		}
	}
	return out, nil
}

// split estimates every table cold, composing the pipeline from the core
// package's public calls — model selection, the final fit, the profile
// interval — so each can be timed as a span. The traced pass runs it in
// place of sweep: the calls EstimateSweep makes internally cannot be timed
// from outside, and no public call warm-starts a fit. cold gives each
// table's divisor and the result it must reproduce.
func (in *batchInputs) split(ctx context.Context, tr *tracer, parent, unit int64, tbs []*core.Table, cold []coldEst, out *passOut) error {
	for i, bt := range in.tables {
		start := time.Now()
		est := in.env.Estimator(bt.limit)
		work := tbs[i]
		if t2, _ := work.DropEmptySources(); t2 != work {
			work = t2
		}
		out.ests[i] = estOut{n: float64(work.Observed())}
		opt := core.SelectionOptions{IC: est.IC, Divisor: est.Divisor, Limit: est.Limit, MaxTerms: est.MaxTerms, MaxOrder: est.MaxOrder}
		t0 := time.Now()
		model, _, err := core.SelectModelCtx(ctx, work, opt)
		t1 := time.Now()
		tr.record(0, parent, unit, "core.select", t0, t1)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			continue
		}
		fit, err := core.FitModel(work, model, est.Limit, 1)
		t2 := time.Now()
		tr.record(0, parent, unit, "core.fit", t1, t2)
		if err != nil {
			continue
		}
		e := estOut{n: min(fit.N, est.Limit)}
		iv, err := core.ProfileIntervalScaledCtx(ctx, work, fit, est.Limit, est.Alpha, est.Limit, cold[i].divisor)
		tr.record(0, parent, unit, "core.interval", t2, time.Now())
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err == nil {
			e.lo, e.hi = iv.Lo, min(iv.Hi, est.Limit)
		}
		out.ests[i] = e
		out.winTimes[i] = time.Since(start)
	}
	return nil
}

// pass is one timed recomputation of the paper pipeline over every
// window and granularity, with no Env result cache: fold the capture
// histograms, estimate each table, cross-validate the alternate windows,
// and render the rows. Untraced (cold == nil) it estimates through
// sweep, the program's own path; traced, through split.
func (in *batchInputs) pass(ctx context.Context, tr *tracer, unit int64, cold []coldEst) (*passOut, error) {
	root := tr.newID()
	start := time.Now()
	out := &passOut{ests: make([]estOut, len(in.tables)), winTimes: make([]time.Duration, len(in.tables))}

	t0 := time.Now()
	tbs := in.fold()
	tr.record(0, root, unit, "ipset.fold", t0, time.Now())

	if cold == nil {
		in.sweep(tbs, out)
	} else if err := in.split(ctx, tr, root, unit, tbs, cold, out); err != nil {
		return nil, err
	}

	est := in.cvEstimator()
	for _, c := range in.cv {
		t0 := time.Now()
		res, err := crossval.RunCtx(ctx, c.names, c.sets, est, false)
		tr.record(0, root, unit, "crossval.run", t0, time.Now())
		if err != nil {
			return nil, err
		}
		out.cv = append(out.cv, res)
	}

	t0 = time.Now()
	out.rendered = in.render(out)
	tr.record(0, root, unit, "report.render", t0, time.Now())
	tr.record(root, 0, unit, "batch.pass", start, time.Now())
	return out, nil
}

// render prints the pass's rows as the paper-style report: one row per
// window estimate and the cross-validation errors per input.
func (in *batchInputs) render(out *passOut) []byte {
	var buf bytes.Buffer
	t := report.Table{Title: "Window estimates", Headers: []string{"Window", "Estimate", "Lo", "Hi"}}
	for i, e := range out.ests {
		t.AddRow(in.tables[i].label, report.FormatFloat(e.n), report.FormatFloat(e.lo), report.FormatFloat(e.hi))
	}
	t.Render(&buf)
	cv := report.Table{Title: "Cross-validation (BIC-adaptive1000)", Headers: []string{"Window", "RMSE", "MAE"}}
	for i, res := range out.cv {
		rmse, mae := crossval.Errors(res)
		cv.AddRow(in.cv[i].label, report.FormatFloat(rmse), report.FormatFloat(mae))
	}
	cv.Render(&buf)
	return buf.Bytes()
}

// reference computes what every untraced pass must reproduce: the
// catalogue's own window series, experiments.Env.Estimates with intervals
// for addresses and for /24s, and each cross-validation input through
// crossval.RunCtx.
func (in *batchInputs) reference(ctx context.Context) (*passOut, error) {
	ref := &passOut{ests: make([]estOut, len(in.tables))}
	for g, s24 := range []bool{false, true} {
		for w, we := range in.env.Estimates(dataset.DefaultOptions(), s24, true) {
			ref.ests[2*w+g] = estOut{n: we.Est, lo: we.Lo, hi: we.Hi}
		}
	}
	est := in.cvEstimator()
	for _, c := range in.cv {
		res, err := crossval.RunCtx(ctx, c.names, c.sets, est, false)
		if err != nil {
			return nil, err
		}
		ref.cv = append(ref.cv, res)
	}
	ref.rendered = in.render(ref)
	return ref, nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkPass compares a pass with the reference bit for bit: one check per
// window estimate, per cross-validation input (every held-out result and
// the input's RMSE and MAE) and for the rendered report.
func checkPass(o *outcome, ref, got *passOut) {
	for i := range ref.ests {
		r, g := ref.ests[i], got.ests[i]
		o.check(sameFloat(r.n, g.n) && sameFloat(r.lo, g.lo) && sameFloat(r.hi, g.hi))
	}
	for i := range ref.cv {
		r, g := ref.cv[i], got.cv[i]
		ok := len(r) == len(g)
		for j := 0; ok && j < len(r); j++ {
			ok = r[j].Name == g[j].Name && r[j].Truth == g[j].Truth && r[j].ObsAll == g[j].ObsAll &&
				r[j].ObsPing == g[j].ObsPing && sameFloat(r[j].Est, g[j].Est) &&
				sameFloat(r[j].Lo, g[j].Lo) && sameFloat(r[j].Hi, g[j].Hi)
		}
		if ok {
			rr, rm := crossval.Errors(r)
			gr, gm := crossval.Errors(g)
			ok = sameFloat(rr, gr) && sameFloat(rm, gm)
		}
		o.check(ok)
	}
	o.check(bytes.Equal(ref.rendered, got.rendered))
}

// recorderCounts is a snapshot of the telemetry counters the batch and
// stream layers report.
type recorderCounts struct {
	fits, iters, nonconv, rounds, cands, warm int64
	events, dropped, histUpdates              int64
	busy, wall                                time.Duration
}

func snapshotRecorder(r *telemetry.Recorder) recorderCounts {
	return recorderCounts{
		fits: r.Fits.Load(), iters: r.FitIters.Sum(), nonconv: r.FitNonConverged.Load(),
		rounds: r.SelectRounds.Load(), cands: r.CandidateFits.Load(), warm: r.SweepWarmStarts.Load(),
		events: r.IngestEvents.Load(), dropped: r.IngestDropped.Load(), histUpdates: r.IngestHistUpdates.Load(),
		busy: r.Busy.Total(), wall: r.Wall.Total(),
	}
}

// busyRatio is Σ task time ÷ (fan-out wall × workers), the worker pool's
// utilisation as telemetry reports it.
func (a recorderCounts) busyRatio() float64 {
	if a.wall <= 0 {
		return 0
	}
	return float64(a.busy) / (float64(a.wall) * float64(parallel.Workers()))
}

// setCounts reports the estimator's Recorder counters for one unit of
// work. core.warm_starts is reported apart: only the sweep paths (batch
// and stream) warm-start.
func setCounts(o *outcome, c recorderCounts) {
	o.set("stats.fits", "count", float64(c.fits), 0)
	o.set("stats.irls_iters", "count", float64(c.iters), 0)
	o.set("stats.nonconverged", "count", float64(c.nonconv), 0)
	o.set("core.select_rounds", "count", float64(c.rounds), 0)
	o.set("core.candidates", "count", float64(c.cands), 0)
}

func runBatch(ctx context.Context, cfg config, opts batchOpts) (*outcome, error) {
	o := newOutcome()
	setups := opts.setups
	if setups == 0 {
		setups = 3
		if cfg.trace {
			setups = 1
		}
	}
	// Set-up is timed several times and reported as its median; each
	// environment is dropped before the next so the runs do not share
	// collection caches.
	var in *batchInputs
	var setupS []float64
	for i := 0; i < setups; i++ {
		in = nil
		settle()
		d := timed(func() { in = collectBatch(cfg.seed) })
		setupS = append(setupS, d.Seconds())
	}
	o.params["windows"] = len(in.tables) / 2
	o.params["tables_per_pass"] = len(in.tables)
	o.params["crossval_inputs"] = len(in.cv)
	o.params["scale"] = "tiny"
	o.params["universe_seed"] = universeSeed

	ref, err := in.reference(ctx)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	minPass := opts.minPass
	if minPass == 0 {
		minPass = 3
	}
	// doPass runs one pass after a garbage collection and checks it
	// against want: the catalogue series for a sweep pass, the cold
	// estimates for a split one.
	doPass := func(tr *tracer, unit int64, cold []coldEst, want *passOut) (*passOut, time.Duration, error) {
		var out *passOut
		var err error
		settle()
		d := timed(func() { out, err = in.pass(ctx, tr, unit, cold) })
		if err != nil {
			return nil, 0, err
		}
		if opts.perturb != nil {
			opts.perturb(out)
		}
		checkPass(o, want, out)
		return out, d, nil
	}

	if !cfg.trace {
		var walls, rates []float64
		// byWin[i] holds table i's estimate time from every pass: a pass
		// estimates the same tables in the same order.
		byWin := make([][]float64, len(in.tables))
		deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		for len(walls) < minPass || time.Now().Before(deadline) {
			out, d, err := doPass(nil, 0, nil, ref)
			if err != nil {
				return nil, err
			}
			walls = append(walls, ms(d))
			var est time.Duration
			for i, w := range out.winTimes {
				byWin[i] = append(byWin[i], ms(w))
				est += w
			}
			rates = append(rates, float64(len(in.tables))/est.Seconds())
		}
		o.set("setup_s", "s", median(setupS), len(setupS))
		o.set("peak_rss_mb", "MB", peakRSSMB(), 0)
		o.set("p50_ms", "ms", median(walls), len(walls))
		// 22 window estimates a pass leave too few for a p99, so the batch
		// tail is the p90 over the tables of each table's median estimate
		// time across passes.
		tail, positions := positionTail(byWin, 0.9)
		o.set("tail_ms", "ms", tail, positions)
		o.set("rate_per_s", "1/s", median(rates), len(rates))
		o.params["tail_quantile"] = 0.9
		o.params["rate_unit"] = "window estimates per second of estimation time (EstimateSweep calls), median over passes"
		return o, nil
	}

	// Traced run. The split pass reproduces the cold estimates, not the
	// warm-started series, so it has a reference of its own and takes
	// each table's divisor from it.
	coldRef, err := in.coldReference(ctx)
	if err != nil {
		return nil, fmt.Errorf("cold reference: %w", err)
	}
	splitRef := &passOut{cv: ref.cv, ests: make([]estOut, len(coldRef))}
	for i, c := range coldRef {
		splitRef.ests[i] = c.est
	}
	splitRef.rendered = in.render(splitRef)

	// Sweep passes (the program's path, spans off) and split passes (spans
	// on) alternate, with the Recorder installed for both, so their walls
	// give the tracing overhead. The counters come from the sweep passes.
	const pairs = 2
	tr := newTracer()
	var plain, traced []float64
	var counts []recorderCounts
	withRecorder := func(f func() error) (recorderCounts, error) {
		rec := telemetry.NewRecorder()
		telemetry.Enable(rec)
		defer telemetry.Disable()
		err := f()
		return snapshotRecorder(rec), err
	}
	for i := 0; i < pairs; i++ {
		var d time.Duration
		c, err := withRecorder(func() (err error) {
			_, d, err = doPass(nil, 0, nil, ref)
			return err
		})
		if err != nil {
			return nil, err
		}
		plain, counts = append(plain, ms(d)), append(counts, c)
		if _, err := withRecorder(func() (err error) {
			_, d, err = doPass(tr, int64(i+1), coldRef, splitRef)
			return err
		}); err != nil {
			return nil, err
		}
		traced = append(traced, ms(d))
	}
	spans := tr.all()
	per := layerTimes(spans)
	lm := medianLayerMS(per, "ipset.fold", "core.select", "core.fit", "core.interval", "crossval.run", "report.render", "batch.pass")
	o.set("experiments.collect_s", "s", median(setupS), len(setupS))
	o.set("ipset.fold_ms", "ms", lm["ipset.fold"], len(per))
	o.set("ipset.folds", "count", float64(len(in.tables)), 0)
	o.set("core.select_ms", "ms", lm["core.select"], len(per))
	o.set("core.fit_ms", "ms", lm["core.fit"], len(per))
	o.set("core.interval_ms", "ms", lm["core.interval"], len(per))
	o.set("crossval.run_ms", "ms", lm["crossval.run"], len(per))
	o.set("report.render_ms", "ms", lm["report.render"], len(per))
	setCounts(o, counts[len(counts)-1])
	o.set("core.warm_starts", "count", float64(counts[len(counts)-1].warm), 0)
	var busy []float64
	for _, c := range counts {
		busy = append(busy, c.busyRatio())
	}
	o.set("parallel.busy_ratio", "ratio", median(busy), len(busy))
	prev := runtime.GOMAXPROCS(1)
	var d time.Duration
	_, err = withRecorder(func() (err error) {
		_, d, err = doPass(nil, 0, nil, ref)
		return err
	})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	o.set("parallel.speedup", "ratio", ms(d)/median(plain), len(plain))
	o.set("trace.unattributed_ms", "ms", lm["batch.pass"], len(per))
	o.set("trace.overhead_ratio", "ratio", median(traced)/median(plain), len(traced))
	o.spans = spans
	return o, nil
}
