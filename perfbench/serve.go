package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ghosts/internal/fleet"
	"ghosts/internal/rng"
	"ghosts/internal/serve"
	"ghosts/internal/server"
	"ghosts/internal/telemetry"
)

// serveOpts sizes the serve workload. defaultServeOpts is the benchmark's
// workload; README.md gives where each value comes from.
type serveOpts struct {
	corpus    int     // distinct estimate requests
	zipfS     float64 // Zipf exponent of request popularity (rank 1 = hottest)
	tailShare float64 // share of ranks whose tables have t = 6–8 sources; the rest have t = 3–4
	warmup    int     // requests sent before timing, to fill the caches
	cacheSize int     // entries per worker cache
	nominal   float64 // open-loop rate of the traced run, req/s
	setups    int
	// corrupt flips one byte of every response body before it is checked
	// (tests use it to show the check fires).
	corrupt bool
}

func defaultServeOpts() serveOpts {
	return serveOpts{
		// From the repository: ghosts-loadgen's default Zipf exponent.
		zipfS: 1.1,
		// Assumptions (no request log exists to take them from): eight
		// times the two workers' 512 cache entries, so misses and
		// evictions run beside hits all run long, and one rank in five
		// carrying a t = 6–8 table, so those misses are frequent enough to
		// set the tail.
		corpus:    4096,
		tailShare: 0.2,
		warmup:    3000,
		// From the repository: ghostsd's default cache size.
		cacheSize: 256,
		nominal:   800,
		setups:    25,
	}
}

// corpusSeed fixes the corpus, as universeSeed fixes the batch universe:
// every run serves the same tables at the same popularity ranks, so the
// fits its misses cost do not change with the run's seed, which draws the
// request sequence.
const corpusSeed = 1

// tailSources are the source counts of the catalogue's observation
// windows that have at most eight sources (tiny scale: its first six
// windows; the other five have nine). A t = 6–8 table takes its source
// count from them in turn.
var tailSources = []int{6, 7, 8, 8, 8, 8}

// corpusEntry is one estimate request of the corpus.
type corpusEntry struct {
	t    int
	body []byte
}

// makeCorpus builds n estimate requests indexed by popularity rank. Each
// table has the shape cmd/ghosts-loadgen gives its corpus: a cell's count
// is Poisson with mean 400 for one source, divided by 8 for every further
// source that shares it. A table's source count is fixed by its rank, so
// every seed has the same cost mix at every popularity: an evenly spread
// tailShare of the ranks take t from tailSources, the rest alternate
// t = 3 and 4 (ghosts-loadgen draws 3 or 4). master draws the counts.
func makeCorpus(master *rng.RNG, n int, tailShare float64) []corpusEntry {
	out := make([]corpusEntry, n)
	every := int(math.Round(1 / tailShare))
	for i := range out {
		r := master.Split()
		t := 3 + i%2
		if i%every == every-1 {
			t = tailSources[(i/every)%len(tailSources)]
		}
		counts := make([]int64, 1<<t)
		for h := 1; h < len(counts); h++ {
			mean := 400.0
			for k := bits.OnesCount(uint(h)); k > 1; k-- {
				mean /= 8
			}
			counts[h] = r.Poisson(mean)
		}
		body, err := json.Marshal(serve.EstimateRequest{Counts: counts})
		if err != nil {
			panic(err) // a slice of int64 always marshals
		}
		out[i] = corpusEntry{t: t, body: body}
	}
	return out
}

// traceHeader carries "<unit>:<parent span>" from the load generator and
// the router's forwarding transport to the next hop.
const traceHeader = "X-Perfbench-Trace"

type traceRef struct{ unit, span int64 }

type refKey struct{}

func refFrom(ctx context.Context) (traceRef, bool) {
	r, ok := ctx.Value(refKey{}).(traceRef)
	return r, ok
}

func parseRef(h string) (traceRef, bool) {
	u, s, ok := strings.Cut(h, ":")
	if !ok {
		return traceRef{}, false
	}
	unit, err1 := strconv.ParseInt(u, 10, 64)
	sp, err2 := strconv.ParseInt(s, 10, 64)
	return traceRef{unit, sp}, err1 == nil && err2 == nil
}

func (r traceRef) String() string { return fmt.Sprintf("%d:%d", r.unit, r.span) }

// rig is the system under test: a fleet router in front of two workers,
// each a server.Server over a serve.Front with ghostsd's defaults and peer
// fill, all on loopback in this process. A traced rig wraps the layers'
// public injection points; its wrappers record spans only while tracer is
// set.
type rig struct {
	url     string
	fronts  []*serve.Front
	servers []*http.Server
	tracer  atomic.Pointer[tracer]
	sheds   atomic.Int64
}

func listenLoopback() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func (g *rig) serveOn(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	g.servers = append(g.servers, hs)
	go hs.Serve(ln)
}

// bootRig starts the fleet and returns once the router reports ready with
// both workers live.
func bootRig(ctx context.Context, traced bool, cacheSize int) (*rig, error) {
	g := &rig{}
	var lns []net.Listener
	var urls []string
	for i := 0; i < 3; i++ {
		ln, u, err := listenLoopback()
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns, urls = append(lns, ln), append(urls, u)
	}
	workers := urls[:2]
	for i := range workers {
		filler := fleet.NewPeerFiller([]string{workers[1-i]}, 0, 0)
		fc := serve.FrontConfig{CacheSize: cacheSize, CacheTTL: 15 * time.Minute, Slots: 1, MaxQueue: 64, PeerFill: filler.Fill}
		if traced {
			fc.Compute = g.compute
			fc.PeerFill = g.peerFill(filler.Fill)
		}
		front := serve.NewFront(fc)
		g.fronts = append(g.fronts, front)
		var h http.Handler = server.New(server.Config{Front: front, Log: io.Discard}).Handler()
		if traced {
			h = g.workerHandler(h)
		}
		g.serveOn(lns[i], h)
	}
	rc := fleet.RouterConfig{Workers: workers, Log: io.Discard}
	if traced {
		rc.Client = &http.Client{Transport: &forwardTracer{g: g, base: http.DefaultTransport}}
	}
	rt, err := fleet.NewRouter(rc)
	if err != nil {
		return nil, err
	}
	rt.ProbeNow(ctx)
	var h http.Handler = rt.Handler()
	if traced {
		h = g.routerHandler(h)
	}
	g.serveOn(lns[2], h)
	g.url = urls[2]
	probe := &http.Client{Timeout: 10 * time.Second}
	defer probe.CloseIdleConnections()
	resp, err := probe.Get(g.url + "/readyz")
	if err != nil {
		g.close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rt.Ring().Live() != 2 {
		g.close()
		return nil, fmt.Errorf("fleet not ready: /readyz %d, %d live workers", resp.StatusCode, rt.Ring().Live())
	}
	return g, nil
}

// close stops every server and waits for their handlers to return.
func (g *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range g.servers {
		hs.Shutdown(ctx)
	}
	http.DefaultClient.CloseIdleConnections()
}

func (g *rig) compute(ctx context.Context, req *serve.EstimateRequest) (*serve.EstimateResponse, error) {
	tr := g.tracer.Load()
	if tr == nil {
		return serve.Compute(ctx, req)
	}
	t0 := time.Now()
	resp, err := serve.Compute(ctx, req)
	ref, _ := refFrom(ctx)
	tr.record(0, ref.span, ref.unit, "serve.compute", t0, time.Now())
	return resp, err
}

func (g *rig) peerFill(fill func(context.Context, string) ([]byte, bool)) func(context.Context, string) ([]byte, bool) {
	return func(ctx context.Context, key string) ([]byte, bool) {
		tr := g.tracer.Load()
		if tr == nil {
			return fill(ctx, key)
		}
		t0 := time.Now()
		b, ok := fill(ctx, key)
		ref, _ := refFrom(ctx)
		tr.record(0, ref.span, ref.unit, "serve.peer_fill", t0, time.Now())
		return b, ok
	}
}

// statusRecorder remembers the status a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHop wraps a handler so a request carrying traceHeader gets a span
// named name, and hands its id on through the request context.
func (g *rig) traceHop(name string, h http.Handler, after func(status int)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := g.tracer.Load()
		ref, ok := parseRef(r.Header.Get(traceHeader))
		if tr == nil || !ok {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.newID()
		sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), refKey{}, traceRef{ref.unit, id})))
		tr.record(id, ref.span, ref.unit, name, t0, time.Now())
		if after != nil {
			after(sw.status)
		}
	})
}

func (g *rig) routerHandler(h http.Handler) http.Handler { return g.traceHop("fleet.route", h, nil) }

func (g *rig) workerHandler(h http.Handler) http.Handler {
	return g.traceHop("server.handler", h, func(status int) {
		if status == http.StatusServiceUnavailable {
			g.sheds.Add(1)
		}
	})
}

// forwardTracer is the router's forwarding transport: it opens a
// fleet.forward span per attempt, passes its id to the worker, and ends
// the span when the router has read the response body.
type forwardTracer struct {
	g    *rig
	base http.RoundTripper
}

func (f *forwardTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := f.g.tracer.Load()
	ref, ok := refFrom(req.Context())
	if tr == nil || !ok {
		return f.base.RoundTrip(req)
	}
	id := tr.newID()
	t0 := time.Now()
	out := req.Clone(req.Context())
	out.Header.Set(traceHeader, traceRef{ref.unit, id}.String())
	resp, err := f.base.RoundTrip(out)
	if err != nil {
		tr.record(id, ref.span, ref.unit, "fleet.forward", t0, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tr.record(id, ref.span, ref.unit, "fleet.forward", t0, time.Now()) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// zipfSeq draws n corpus indices with Zipf popularity.
func zipfSeq(z *rng.Zipf, n int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = z.Next()
	}
	return seq
}

// checkSamples compares every 200 body with serve.Compute(req).Encode()
// for its corpus entry; failures, non-200 responses and mismatches count
// as failed.
func checkSamples(ctx context.Context, o *outcome, corpus []corpusEntry, phases ...[]sample) error {
	want := map[int][sha256.Size]byte{}
	for _, ph := range phases {
		for i := range ph {
			want[ph[i].entry] = [sha256.Size]byte{}
		}
	}
	for e := range want {
		var req serve.EstimateRequest
		if err := json.Unmarshal(corpus[e].body, &req); err != nil {
			return err
		}
		if err := req.Normalize(); err != nil {
			return fmt.Errorf("corpus entry %d: %w", e, err)
		}
		resp, err := serve.Compute(ctx, &req)
		if err != nil {
			return fmt.Errorf("corpus entry %d: %w", e, err)
		}
		want[e] = sha256.Sum256(resp.Encode())
	}
	for _, ph := range phases {
		for i := range ph {
			o.check(ph[i].ok() && ph[i].sum == want[ph[i].entry])
		}
	}
	return nil
}

// latencies returns the successful requests' latencies in ms.
func latencies(ph []sample) []float64 {
	var xs []float64
	for i := range ph {
		if ph[i].ok() {
			xs = append(xs, ms(ph[i].latency()))
		}
	}
	return xs
}

// maxRate bounds the closed loop's request sequence over the corpus, and
// maxHotRate the one over the hot ranks, in req/s.
const (
	maxRate    = 10000
	maxHotRate = 25000
)

// closedConns is the latency phase's connection count. With two
// connections on a 2-CPU host, two misses computed at once each fan out
// over both processors, so a processor slowed from outside the benchmark
// stalls both: with a busy loop pinned to one CPU, the p99 rose 60% while
// the p50 held. With one connection the same busy loop moved neither.
const closedConns = 1

// throughput is the median over the phase's whole seconds of the requests
// completed in each, and the number of seconds. A burst of interference
// from outside the benchmark then slows one second, not the reported
// value.
func throughput(ph []sample) (float64, int) {
	var last time.Duration
	for i := range ph {
		last = max(last, ph[i].done)
	}
	perSecond := make([]float64, max(1, int(last/time.Second)))
	for i := range ph {
		if k := int(ph[i].done / time.Second); ph[i].ok() && k < len(perSecond) {
			perSecond[k]++
		}
	}
	if last < time.Second {
		return perSecond[0] / last.Seconds(), 1
	}
	return median(perSecond), len(perSecond)
}

func runServe(ctx context.Context, cfg config, opts serveOpts) (*outcome, error) {
	o := newOutcome()
	o.params["corpus"] = opts.corpus
	o.params["zipf_s"] = opts.zipfS
	o.params["t_mix"] = fmt.Sprintf("%.0f%% t=3-4, %.0f%% t=6-8", 100*(1-opts.tailShare), 100*opts.tailShare)
	o.params["cache_entries"] = 2 * opts.cacheSize
	o.params["nominal_rps"] = opts.nominal
	o.params["connections"] = closedConns
	o.params["loop"] = "closed: one connection over the corpus for two thirds of the run (latencies), nproc over the hot ranks for the rest (rate); the traced run is open-loop at the nominal rate over nproc connections"

	// The recorder is always on, as in ghostsd.
	telemetry.Enable(telemetry.NewRecorder())
	defer telemetry.Disable()

	setups := opts.setups
	if cfg.trace {
		setups = 1
	}
	var g *rig
	var corpus []corpusEntry
	var setupS []float64
	for i := 0; i < setups; i++ {
		if g != nil {
			g.close()
		}
		var err error
		settle()
		d := timed(func() {
			corpus = makeCorpus(rng.New(corpusSeed), opts.corpus, opts.tailShare)
			g, err = bootRig(ctx, cfg.trace, opts.cacheSize)
		})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}
	defer g.close()
	master := rng.New(cfg.seed)
	z := rng.NewZipf(master.Split(), opts.corpus, opts.zipfS)
	conns := runtime.NumCPU()
	job := func(seq []int) loadJob {
		return loadJob{url: g.url, corpus: corpus, seq: seq, rate: opts.nominal, conns: conns, corrupt: opts.corrupt}
	}
	phase := func(j loadJob) []sample {
		_, ph := runPhase(ctx, nil, j)
		return ph
	}

	warmJob := job(zipfSeq(z, opts.warmup))
	warmJob.rate *= 4
	warm := phase(warmJob)

	if cfg.trace {
		// The run splits between an open loop at the nominal rate with
		// spans off and the same with spans on.
		phaseN := int(opts.nominal * cfg.seconds / 2)
		plain := phase(job(zipfSeq(z, phaseN)))
		rec := telemetry.NewRecorder()
		telemetry.Enable(rec)
		tr := newTracer()
		g.tracer.Store(tr)
		var depth atomic.Int64
		stop := make(chan struct{})
		var pollWG sync.WaitGroup
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					for _, f := range g.fronts {
						if q := int64(f.Load().QueueWaiting); q > depth.Load() {
							depth.Store(q)
						}
					}
				}
			}
		}()
		seq := zipfSeq(z, phaseN)
		tracedJob := job(seq)
		tracedJob.unit0 = 1
		start, traced := runPhase(ctx, tr, tracedJob)
		close(stop)
		pollWG.Wait()
		g.tracer.Store(nil)
		for i := range traced {
			s := &traced[i]
			tr.record(s.span, 0, tracedJob.unit0+int64(i), "loadgen.request", start.Add(s.due), start.Add(s.done))
		}
		if err := checkSamples(ctx, o, corpus, warm, plain, traced); err != nil {
			return nil, err
		}
		serveLayers(o, tr.all(), traced, seq, rec, g, depth.Load())
		plainLat := latencies(plain)
		o.set("loadgen.nominal_p50_ms", "ms", median(plainLat), len(plainLat))
		nomTail, _ := partP99(plainLat, 1000)
		o.set("loadgen.nominal_p99_ms", "ms", nomTail, len(plainLat))
		o.set("trace.overhead_ratio", "ratio", median(latencies(traced))/median(plainLat), len(traced))
		return o, nil
	}

	// Two thirds of the run give the gated latencies: one connection
	// sending back to back over the whole corpus. The sequence is longer
	// than any loopback fleet can serve in that time.
	mixedS := cfg.seconds * 2 / 3
	closedJob := job(zipfSeq(z, int(mixedS*maxRate)))
	closedJob.rate, closedJob.seconds, closedJob.conns = 0, mixedS, closedConns
	closed := phase(closedJob)

	// The last third gives the rate: nproc connections sending back to back
	// over the most popular tables, each requested once before timing so
	// that every timed request is a cache hit. They are a quarter of the two
	// workers' cache entries, so each worker's share of them stays cached.
	hotRanks := min(opts.cacheSize/2, opts.corpus)
	o.params["hot_ranks"] = hotRanks
	prime := make([]int, hotRanks)
	for i := range prime {
		prime[i] = i
	}
	primed := phase(job(prime))
	hotJob := job(zipfSeq(rng.NewZipf(master.Split(), hotRanks, opts.zipfS), int((cfg.seconds-mixedS)*maxHotRate)))
	hotJob.rate, hotJob.seconds = 0, cfg.seconds-mixedS
	hot := phase(hotJob)
	if err := checkSamples(ctx, o, corpus, warm, closed, primed, hot); err != nil {
		return nil, err
	}
	hits := 0
	for i := range hot {
		if hot[i].cache == "hit" {
			hits++
		}
	}
	o.params["hot_hit_ratio"] = float64(hits) / float64(max(len(hot), 1))
	lat := latencies(closed)
	tail, parts := partP99(lat, 1000)
	o.set("setup_s", "s", median(setupS), len(setupS))
	o.set("peak_rss_mb", "MB", peakRSSMB(), 0)
	o.set("p50_ms", "ms", median(lat), len(lat))
	o.set("tail_ms", "ms", tail, len(lat))
	rate, seconds := throughput(hot)
	o.set("rate_per_s", "1/s", rate, seconds)
	o.params["tail_quantile"] = 0.99
	o.params["tail_parts"] = parts
	return o, nil
}

// serveLayers derives the serve per-layer metrics from the traced phase.
func serveLayers(o *outcome, spans []span, ph []sample, seq []int, rec *telemetry.Recorder, g *rig, depth int64) {
	per := layerTimes(spans)
	lm := medianLayerMS(per, "fleet.route", "fleet.forward", "server.handler", "loadgen.request")
	o.set("fleet.route_ms", "ms", lm["fleet.route"], len(per))
	o.set("fleet.forward_ms", "ms", lm["fleet.forward"], len(per))
	o.set("server.handler_ms", "ms", lm["server.handler"], len(per))
	o.set("trace.unattributed_ms", "ms", lm["loadgen.request"], len(per))
	var computes, fills []float64
	for _, s := range spans {
		switch s.Name {
		case "serve.compute":
			computes = append(computes, ms(s.dur()))
		case "serve.peer_fill":
			fills = append(fills, ms(s.dur()))
		}
	}
	o.set("serve.compute_ms", "ms", median(computes), len(computes))
	o.set("serve.peer_fill_ms", "ms", median(fills), len(fills))
	o.set("serve.computes", "count", float64(len(computes)), 0)
	keys := map[int]bool{}
	for _, e := range seq {
		keys[e] = true
	}
	o.set("serve.computes_per_key", "ratio", float64(len(computes))/float64(len(keys)), 0)
	hits, ok := 0, 0
	var late []float64
	for i := range ph {
		if ph[i].ok() {
			ok++
			if ph[i].cache == string(serve.StatusHit) {
				hits++
			}
		}
		late = append(late, ms(ph[i].sent-ph[i].due))
	}
	o.set("serve.hit_ratio", "ratio", float64(hits)/float64(max(ok, 1)), ok)
	o.set("serve.coalesced", "count", float64(rec.Coalesced.Load()), 0)
	fillHit, fillMiss := rec.PeerFills.Load(), rec.PeerFillMisses.Load()
	o.set("serve.peer_fill_hit_ratio", "ratio", float64(fillHit)/float64(max(fillHit+fillMiss, 1)), 0)
	o.set("serve.cache_evictions", "count", float64(rec.CacheEvictions.Load()), 0)
	o.set("serve.queue_depth_max", "count", float64(depth), 0)
	o.set("serve.shed", "count", float64(g.sheds.Load()), 0)
	o.set("fleet.forwards", "count", float64(rec.FleetForwards.Load()), 0)
	o.set("fleet.retries", "count", float64(rec.FleetRetries.Load()), 0)
	o.set("loadgen.late_ms", "ms", quantile(late, 0.99), len(late))
	c := snapshotRecorder(rec)
	o.set("parallel.busy_ratio", "ratio", c.busyRatio(), 0)
	setCounts(o, c)
	o.spans = spans
}
