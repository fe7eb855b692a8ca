package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"ghosts/internal/ingest"
	"ghosts/internal/ipv4"
	"ghosts/internal/pcap"
	"ghosts/internal/telemetry"
	"ghosts/internal/wire"
)

// streamOpts sizes the stream workload. defaultStreamOpts is the
// benchmark's workload.
type streamOpts struct {
	events     int           // capture events; partner copies add packets on top
	vantages   int           // monitors (capture sources)
	hosts      int           // observed host population
	outOfOrder float64       // share of events stamped up to one window early: late but still live
	late       float64       // share stamped more than the ring span early: dropped
	paired     float64       // chance an event is also logged by the monitor paired with its own
	span       time.Duration // event-time length of the capture
	window     time.Duration
	windows    int
	every      time.Duration
	chunk      int // packets read, decoded and offered per stage
	setups     int
	minReplays int
	// dropTick, when set, removes one tick from each composed series
	// before it is checked (tests use it to show the check fires).
	dropTick bool
}

func defaultStreamOpts() streamOpts {
	return streamOpts{
		events:     50000,
		vantages:   8,
		hosts:      1000,
		outOfOrder: 0.05,
		late:       0.01,
		paired:     0.3,
		span:       20 * time.Minute,
		window:     time.Minute,
		windows:    4,
		every:      10 * time.Second,
		chunk:      512,
		setups:     25,
		minReplays: 5,
	}
}

func (o streamOpts) pipelineConfig(onTick func(*ingest.Tick)) ingest.Config {
	return ingest.Config{Window: o.window, Windows: o.windows, Every: o.every, OnTick: onTick}
}

// makeCapture generates the replayed pcap: ICMP echo requests from a
// host population to o.vantages monitors of unequal reach, evenly spaced
// over o.span. Monitors come in pairs (0 and 1, 2 and 3, …) that share an
// upstream: an event one logs is also logged by its partner with chance
// o.paired, which gives every window the same four pairwise interactions
// for model selection to find. o.outOfOrder of the events are stamped up
// to one window early and o.late of them beyond the ring.
func makeCapture(seed uint64, o streamOpts) ([]byte, error) {
	r := rand.New(rand.NewSource(int64(seed)))
	// Monitor v sees a share of traffic proportional to v+1.
	cum := make([]float64, o.vantages)
	total := 0.0
	for v := range cum {
		total += float64(v + 1)
		cum[v] = total
	}
	var buf bytes.Buffer
	// Each packet takes 16 bytes of record header and 28 of IPv4 and ICMP;
	// sizing the buffer up front keeps its growth out of set-up.
	buf.Grow(24 + int(float64(o.events)*(1+o.paired)*1.05)*44)
	pw := pcap.NewWriter(&buf)
	base := time.Unix(1700000000, 0).UTC()
	step := o.span / time.Duration(o.events)
	ring := time.Duration(o.windows) * o.window
	for i := 0; i < o.events; i++ {
		at := base.Add(time.Duration(i) * step)
		switch u := r.Float64(); {
		case u < o.late:
			at = at.Add(-ring - time.Duration(r.Int63n(int64(o.window))))
		case u < o.late+o.outOfOrder:
			at = at.Add(-time.Duration(r.Int63n(int64(o.window))))
		}
		host := ipv4.Addr(0x0a010000 + uint32(r.Intn(o.hosts)))
		x := r.Float64() * total
		v := 0
		for cum[v] < x {
			v++
		}
		vs := []int{v}
		if r.Float64() < o.paired {
			vs = append(vs, v^1)
		}
		for _, v := range vs {
			data, err := wire.EchoRequest(host, ipv4.Addr(0x0a000001+uint32(v)), uint16(v+1), uint16(i)).Marshal()
			if err != nil {
				return nil, err
			}
			if err := pw.WritePacket(at, data); err != nil {
				return nil, err
			}
		}
	}
	if err := pw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replayOut is one composed replay's output and measurements.
type replayOut struct {
	ticks     []*ingest.Tick
	wall      time.Duration // read, decode, offer and flush of every packet
	tickCalls []time.Duration
	tickTime  time.Duration // summed tickCalls
	packets   int
	malformed int
	frames    int64
	shed      int64
	refit     int64 // windows re-estimated (traced runs)
	live      int64 // windows published
}

// replayComposed replays capture through the public calls ingest.Replay
// makes — pcap.Reader.Next, wire.Unmarshal, Pipeline.Source and Offer, and
// a final Flush — in chunks of o.chunk packets per stage, so each stage
// can be timed from outside. One Subscribe consumer derives delta frames
// and encodes them as GET /v1/watch?delta=true does. Every Offer or Flush
// that fires a tick is timed: that call's duration is the tick's emission
// latency.
func replayComposed(capture []byte, o streamOpts, tr *tracer, unit int64) (*replayOut, error) {
	out := &replayOut{}
	rec := telemetry.Active()
	fired := false
	p := ingest.New(o.pipelineConfig(func(tk *ingest.Tick) {
		out.ticks = append(out.ticks, tk)
		fired = true
		if rec != nil {
			out.refit += rec.IngestWindowsParallel.Load()
			out.live += int64(len(tk.Windows))
		}
	}))
	root := tr.newID()
	ch, cancel := p.Subscribe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev *ingest.Tick
		var lastSeq int64
		var frame bytes.Buffer
		for tk := range ch {
			out.shed += tk.Seq - lastSeq - 1
			lastSeq = tk.Seq
			t0 := time.Now()
			d := ingest.DeltaTick(prev, tk)
			prev = tk
			if d != nil {
				frame.Reset()
				fmt.Fprintf(&frame, "event: tick\nid: %d\ndata: %s\n\n", d.Seq, bytes.TrimSuffix(d.Encode(), []byte("\n")))
				out.frames++
			}
			tr.record(0, root, unit, "ingest.encode", t0, time.Now())
		}
	}()
	// cancel closes the channel; the consumer then drains and exits.
	defer wg.Wait()
	defer cancel()

	start := time.Now()
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		return nil, err
	}
	pkts := make([]pcap.Packet, o.chunk)
	decoded := make([]*wire.Packet, o.chunk)
	timeCall := func(parent int64, call func()) {
		fired = false
		a := time.Now()
		call()
		if fired {
			b := time.Now()
			out.tickCalls = append(out.tickCalls, b.Sub(a))
			out.tickTime += b.Sub(a)
			tr.record(0, parent, unit, "ingest.tick", a, b)
		}
	}
	for eof := false; !eof; {
		t0 := time.Now()
		n := 0
		for n < len(pkts) {
			pkt, err := pr.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return nil, fmt.Errorf("packet %d: %w", out.packets+n+1, err)
			}
			pkts[n] = pkt
			n++
		}
		t1 := time.Now()
		tr.record(0, root, unit, "pcap.read", t0, t1)
		for k := 0; k < n; k++ {
			w, err := wire.Unmarshal(pkts[k].Data)
			if err != nil {
				out.malformed++
				w = nil
			}
			decoded[k] = w
		}
		t2 := time.Now()
		tr.record(0, root, unit, "wire.decode", t1, t2)
		offer := tr.newID()
		for k := 0; k < n; k++ {
			w := decoded[k]
			if w == nil {
				continue
			}
			src, err := p.Source(w.IP.Dst.String())
			if err != nil {
				src = -1 // beyond the source-table limit: Offer counts the drop
			}
			timeCall(offer, func() { p.Offer(src, w.IP.Src, pkts[k].Time) })
		}
		tr.record(offer, root, unit, "ingest.offer", t2, time.Now())
		out.packets += n
	}
	timeCall(root, func() { p.Flush() })
	out.wall = time.Since(start)
	tr.record(root, 0, unit, "stream.replay", start, start.Add(out.wall))
	return out, nil
}

// referenceTicks replays capture through ingest.Replay and returns every
// tick's encoding.
func referenceTicks(capture []byte, o streamOpts) ([][]byte, error) {
	var ticks [][]byte
	p := ingest.New(o.pipelineConfig(func(tk *ingest.Tick) { ticks = append(ticks, tk.Encode()) }))
	if _, err := ingest.Replay(bytes.NewReader(capture), p); err != nil {
		return nil, err
	}
	return ticks, nil
}

// checkTicks compares a composed replay's tick series with the reference
// byte for byte, one check per reference tick; a missing or extra tick is
// a mismatch.
func checkTicks(o *outcome, ref [][]byte, got []*ingest.Tick) {
	for i := 0; i < max(len(ref), len(got)); i++ {
		o.check(i < len(ref) && i < len(got) && bytes.Equal(ref[i], got[i].Encode()))
	}
}

func runStream(ctx context.Context, cfg config, opts streamOpts) (*outcome, error) {
	o := newOutcome()
	o.params["events"] = opts.events
	o.params["vantages"] = opts.vantages
	o.params["hosts"] = opts.hosts
	o.params["out_of_order_share"] = opts.outOfOrder
	o.params["late_share"] = opts.late
	o.params["window"] = opts.window.String()
	o.params["windows"] = opts.windows
	o.params["every"] = opts.every.String()

	setups := opts.setups
	if cfg.trace {
		setups = 1
	}
	var capture []byte
	var setupS []float64
	for i := 0; i < setups; i++ {
		var err error
		settle()
		d := timed(func() { capture, err = makeCapture(cfg.seed, opts) })
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}
	ref, err := referenceTicks(capture, opts)
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	o.params["ticks_per_replay"] = len(ref)

	replay := func(tr *tracer, unit int64) (*replayOut, error) {
		settle()
		out, err := replayComposed(capture, opts, tr, unit)
		if err != nil {
			return nil, err
		}
		o.params["packets_per_replay"] = out.packets
		if opts.dropTick && len(out.ticks) > 0 {
			out.ticks = out.ticks[1:]
		}
		checkTicks(o, ref, out.ticks)
		return out, nil
	}

	if !cfg.trace {
		var rates, ticks []float64
		// byTick[k] holds the k-th tick's duration from every replay: a
		// replay fires the same ticks in the same order.
		byTick := make([][]float64, len(ref))
		deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		for len(rates) < opts.minReplays || time.Now().Before(deadline) {
			out, err := replay(nil, 0)
			if err != nil {
				return nil, err
			}
			rates = append(rates, float64(out.packets)/(out.wall-out.tickTime).Seconds())
			for k, d := range out.tickCalls {
				ticks = append(ticks, ms(d))
				if k < len(byTick) {
					byTick[k] = append(byTick[k], ms(d))
				}
			}
		}
		// A replay refits the same windows at the same tick positions every
		// time, so the tail is taken over positions. With 120 positions the
		// p90 is the highest percentile that has ten beyond it.
		tail, positions := positionTail(byTick, 0.9)
		o.set("setup_s", "s", median(setupS), len(setupS))
		o.set("peak_rss_mb", "MB", peakRSSMB(), 0)
		o.set("p50_ms", "ms", median(ticks), len(ticks))
		o.set("tail_ms", "ms", tail, len(ticks))
		o.set("rate_per_s", "1/s", median(rates), len(rates))
		o.params["tail_quantile"] = 0.9
		o.params["tail_positions"] = positions
		o.params["replays"] = len(rates)
		o.params["rate_unit"] = "packets replayed per second of replay wall time"
		return o, nil
	}

	// Traced run: untraced and traced replays alternate; the recorder is
	// on only for the traced ones.
	const pairs = 3
	tr := newTracer()
	var plain, traced, refits, dirty, ticks, frames, shed, malformed []float64
	var counts []recorderCounts
	for i := 0; i < pairs; i++ {
		out, err := replay(nil, 0)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ms(out.wall))
		rec := telemetry.NewRecorder()
		telemetry.Enable(rec)
		out, err = replay(tr, int64(i+1))
		telemetry.Disable()
		if err != nil {
			return nil, err
		}
		traced = append(traced, ms(out.wall))
		counts = append(counts, snapshotRecorder(rec))
		refits = append(refits, float64(out.refit))
		dirty = append(dirty, float64(out.refit)/float64(max(out.live, 1)))
		ticks = append(ticks, float64(len(out.ticks)))
		frames = append(frames, float64(out.frames))
		shed = append(shed, float64(out.shed))
		malformed = append(malformed, float64(out.malformed))
	}
	spans := tr.all()
	per := layerTimes(spans)
	lm := medianLayerMS(per, "pcap.read", "wire.decode", "ingest.offer", "ingest.tick", "ingest.encode", "stream.replay")
	o.set("pcap.read_ms", "ms", lm["pcap.read"], len(per))
	o.set("wire.decode_ms", "ms", lm["wire.decode"], len(per))
	o.set("ingest.offer_ms", "ms", lm["ingest.offer"], len(per))
	o.set("ingest.tick_ms", "ms", lm["ingest.tick"], len(per))
	o.set("ingest.encode_ms", "ms", lm["ingest.encode"], len(per))
	o.set("trace.unattributed_ms", "ms", lm["stream.replay"], len(per))
	c := counts[len(counts)-1]
	o.set("ingest.events", "count", float64(c.events), 0)
	o.set("ingest.dropped", "count", float64(c.dropped), 0)
	o.set("ingest.hist_updates", "count", float64(c.histUpdates), 0)
	setCounts(o, c)
	o.set("core.warm_starts", "count", float64(c.warm), 0)
	o.set("wire.malformed", "count", median(malformed), 0)
	o.set("ingest.ticks", "count", median(ticks), 0)
	o.set("ingest.windows_refit", "count", median(refits), 0)
	o.set("ingest.dirty_ratio", "ratio", median(dirty), len(dirty))
	o.set("watch.frames", "count", median(frames), 0)
	o.set("watch.shed", "count", median(shed), 0)
	var busy []float64
	for _, c := range counts {
		busy = append(busy, c.busyRatio())
	}
	o.set("parallel.busy_ratio", "ratio", median(busy), len(busy))
	o.set("trace.overhead_ratio", "ratio", median(traced)/median(plain), len(traced))
	o.spans = spans
	return o, nil
}
