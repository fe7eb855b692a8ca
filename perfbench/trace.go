package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's public boundary. Unit groups the spans of one unit of
// work — a batch pass, a served request, a stream replay — and Parent
// links a span to the span that caused it (0 for a unit's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Unit   int64  `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall-clock instant to the tracer's time base.
func (tr *tracer) at(t time.Time) int64 { return int64(t.Sub(tr.t0)) }

// newID reserves a span id, so a parent can hand its id to children
// before it ends.
func (tr *tracer) newID() int64 {
	if tr == nil {
		return 0
	}
	return tr.ids.Add(1)
}

// record stores a finished span. id may be 0, in which case one is
// assigned.
func (tr *tracer) record(id, parent, unit int64, name string, start, end time.Time) {
	if tr == nil {
		return
	}
	if id == 0 {
		id = tr.newID()
	}
	s := span{ID: id, Parent: parent, Unit: unit, Name: name, Start: tr.at(start), End: tr.at(end)}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

func (tr *tracer) all() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover. Children that overlap
// each other (a parallel fan-out, a concurrent consumer) are counted once.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, curStart, curEnd int64
		open := false
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = a, b, true
			case a > curEnd:
				covered += curEnd - curStart
				curStart, curEnd = a, b
			case b > curEnd:
				curEnd = b
			}
		}
		if open {
			covered += curEnd - curStart
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerTimes sums self time per (unit, span name). Units are the keys of
// the outer map.
func layerTimes(spans []span) map[int64]map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[int64]map[string]time.Duration)
	for _, s := range spans {
		m := out[s.Unit]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Unit] = m
		}
		m[s.Name] += self[s.ID]
	}
	return out
}

// medianLayerMS returns, for each name, the median over units of the
// unit's summed self time in milliseconds. A unit without a span of that
// name contributes zero.
func medianLayerMS(per map[int64]map[string]time.Duration, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		var xs []float64
		for _, m := range per {
			xs = append(xs, ms(m[n]))
		}
		out[n] = median(xs)
	}
	return out
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
