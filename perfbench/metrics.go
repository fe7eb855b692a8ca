package main

import (
	"fmt"
	"slices"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
	in         string // per-layer metrics: the workloads that measure it
}

// endToEnd lists the metrics an untraced run reports, on every workload.
// README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"peak_rss_mb", "MB", ""},
	{"p50_ms", "ms", ""},
	{"tail_ms", "ms", ""},
	{"rate_per_s", "1/s", ""},
}

// perLayer lists the metrics a traced run reports, each with the
// workloads that measure it. Every traced run reports all of them; a
// metric its workload does not measure reads 0.
var perLayer = []metricDef{
	// batch
	{"experiments.collect_s", "s", "batch"},
	{"ipset.fold_ms", "ms", "batch"},
	{"ipset.folds", "count", "batch"},
	{"core.select_ms", "ms", "batch"},
	{"core.fit_ms", "ms", "batch"},
	{"core.interval_ms", "ms", "batch"},
	{"crossval.run_ms", "ms", "batch"},
	{"report.render_ms", "ms", "batch"},
	// the estimator and the worker pool, wherever they run
	{"stats.fits", "count", "batch serve stream"},
	{"stats.irls_iters", "count", "batch serve stream"},
	{"stats.nonconverged", "count", "batch serve stream"},
	{"core.select_rounds", "count", "batch serve stream"},
	{"core.candidates", "count", "batch serve stream"},
	{"core.warm_starts", "count", "batch stream"},
	{"parallel.busy_ratio", "ratio", "batch serve stream"},
	{"parallel.speedup", "ratio", "batch"},
	// serve
	{"fleet.route_ms", "ms", "serve"},
	{"fleet.forward_ms", "ms", "serve"},
	{"fleet.forwards", "count", "serve"},
	{"fleet.retries", "count", "serve"},
	{"server.handler_ms", "ms", "serve"},
	{"serve.hit_ratio", "ratio", "serve"},
	{"serve.coalesced", "count", "serve"},
	{"serve.peer_fill_ms", "ms", "serve"},
	{"serve.peer_fill_hit_ratio", "ratio", "serve"},
	{"serve.cache_evictions", "count", "serve"},
	{"serve.compute_ms", "ms", "serve"},
	{"serve.computes", "count", "serve"},
	{"serve.computes_per_key", "ratio", "serve"},
	{"serve.queue_depth_max", "count", "serve"},
	{"serve.shed", "count", "serve"},
	{"loadgen.late_ms", "ms", "serve"},
	{"loadgen.nominal_p50_ms", "ms", "serve"},
	{"loadgen.nominal_p99_ms", "ms", "serve"},
	// stream
	{"pcap.read_ms", "ms", "stream"},
	{"wire.decode_ms", "ms", "stream"},
	{"wire.malformed", "count", "stream"},
	{"ingest.offer_ms", "ms", "stream"},
	{"ingest.events", "count", "stream"},
	{"ingest.hist_updates", "count", "stream"},
	{"ingest.dropped", "count", "stream"},
	{"ingest.tick_ms", "ms", "stream"},
	{"ingest.ticks", "count", "stream"},
	{"ingest.windows_refit", "count", "stream"},
	{"ingest.dirty_ratio", "ratio", "stream"},
	{"ingest.encode_ms", "ms", "stream"},
	{"watch.frames", "count", "stream"},
	{"watch.shed", "count", "stream"},
	// every workload
	{"trace.unattributed_ms", "ms", "batch serve stream"},
	{"trace.overhead_ratio", "ratio", "batch serve stream"},
}

// complete checks that o reports exactly the metrics defs lists, with
// their units; with fill set, a metric o lacks reads 0 instead.
func complete(o *outcome, defs []metricDef, fill bool) error {
	want := make(map[string]string, len(defs))
	for _, d := range defs {
		want[d.name] = d.unit
		m, ok := o.Metrics[d.name]
		switch {
		case !ok && fill:
			o.Metrics[d.name] = metric{Value: 0, Unit: d.unit}
		case !ok:
			return fmt.Errorf("metric %s not measured", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	for name := range o.Metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

// measuredBy returns the per-layer metrics workload measures.
func measuredBy(workload string) []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		if slices.Contains(strings.Fields(d.in), workload) {
			out = append(out, d)
		}
	}
	return out
}
