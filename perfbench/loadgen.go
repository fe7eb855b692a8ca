package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loadJob is one load-generation phase.
type loadJob struct {
	url    string
	corpus []corpusEntry
	seq    []int // corpus entries in send order
	// rate > 0 sends seq open-loop at rate req/s; otherwise conns
	// connections send back to back for seconds (closed loop).
	rate    float64
	conns   int
	seconds float64
	// unit0 > 0 traces the phase: request i carries unit unit0+i and its
	// loadgen.request span id in traceHeader.
	unit0 int64
	// corrupt flips one byte of every response body before it is hashed
	// (tests use it to show the output check fires).
	corrupt bool
}

// sample is one request; times are from the phase start.
type sample struct {
	entry           int
	due, sent, done time.Duration
	status          int
	cache           string
	sum             [sha256.Size]byte // of the response body
	err             error
	span            int64
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

func (s *sample) latency() time.Duration { return s.done - s.due }

// runPhase runs one load-generation phase with its own client of
// job.conns connections and returns the phase's start and one sample per
// request sent. The client shares the process, and so the Go scheduler's
// processors, with the fleet: a request due while the estimator's fan-out
// holds every processor goes out late, as a request arriving then would
// wait for one, so latency counts from the due time.
func runPhase(ctx context.Context, tr *tracer, job loadJob) (time.Time, []sample) {
	lg := &loadgen{job: job, tr: tr, client: &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: job.conns, MaxIdleConnsPerHost: job.conns},
	}}
	defer lg.client.CloseIdleConnections()
	settle()
	start := time.Now()
	if job.rate > 0 {
		return start, lg.openLoop(ctx, start)
	}
	return start, lg.closedLoop(ctx, start)
}

type loadgen struct {
	job    loadJob
	tr     *tracer
	client *http.Client
}

// openLoop sends seq[i] at i/rate seconds after start, whatever the state
// of earlier requests, and returns once every request has finished. Each
// request is timed from its due time, so a stall delays the requests
// queued behind it in the measurement too.
func (lg *loadgen) openLoop(ctx context.Context, start time.Time) []sample {
	seq := lg.job.seq
	out := make([]sample, len(seq))
	var wg sync.WaitGroup
	dueOf := func(i int) time.Duration { return time.Duration(float64(i) / lg.job.rate * float64(time.Second)) }
	for i := 0; i < len(seq); {
		now := time.Since(start)
		if d := dueOf(i); d > now {
			time.Sleep(d - now)
			continue
		}
		for ; i < len(seq) && dueOf(i) <= now; i++ {
			s := &out[i]
			s.entry, s.due = seq[i], dueOf(i)
			var unit int64
			if lg.job.unit0 > 0 {
				unit = lg.job.unit0 + int64(i)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				lg.send(ctx, start, unit, s)
			}()
		}
	}
	wg.Wait()
	return out
}

// closedLoop keeps conns requests in flight for seconds — each connection
// sends its next request from seq as soon as the previous one completes —
// and returns the requests it sent.
func (lg *loadgen) closedLoop(ctx context.Context, start time.Time) []sample {
	seq := lg.job.seq
	out := make([]sample, len(seq))
	d := time.Duration(lg.job.seconds * float64(time.Second))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < lg.job.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				s := &out[i]
				s.entry, s.due = seq[i], time.Since(start)
				lg.send(ctx, start, 0, s)
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(seq))]
}

func (lg *loadgen) send(ctx context.Context, start time.Time, unit int64, s *sample) {
	s.sent = time.Since(start)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.job.url+"/v1/estimate", bytes.NewReader(lg.job.corpus[s.entry].body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if unit > 0 {
		s.span = lg.tr.newID()
		req.Header.Set(traceHeader, traceRef{unit, s.span}.String())
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		s.err, s.done = err, time.Since(start)
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Since(start)
	s.err, s.status, s.cache = err, resp.StatusCode, resp.Header.Get("X-Ghosts-Cache")
	if lg.job.corrupt && len(b) > 0 {
		b = append([]byte(nil), b...)
		b[len(b)/2] ^= 1
	}
	s.sum = sha256.Sum256(b)
}
