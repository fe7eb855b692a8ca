package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// threeSourceRequest is a small, well-behaved capture-history table used
// throughout the serve and server tests: three sources with healthy
// pairwise overlap.
func threeSourceRequest() *EstimateRequest {
	return &EstimateRequest{
		Sources: []string{"A", "B", "C"},
		Counts:  []int64{0, 400, 350, 120, 300, 90, 80, 40},
		Limit:   5000,
	}
}

func TestNormalizeDefaults(t *testing.T) {
	req := threeSourceRequest()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	if req.IC != "BIC" || req.Divisor != "adaptive1000" || req.Alpha != 1e-7 {
		t.Fatalf("defaults not applied: %+v", req)
	}
	if req.Interval == nil || !*req.Interval {
		t.Fatal("interval should default to true")
	}
}

func TestNormalizeGeneratesSourceNames(t *testing.T) {
	req := &EstimateRequest{Counts: []int64{0, 10, 12, 5}}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(req.Sources) != 2 || req.Sources[0] != "S1" || req.Sources[1] != "S2" {
		t.Fatalf("generated sources = %v", req.Sources)
	}
}

func TestNormalizeValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		req  EstimateRequest
		want string // substring of the error
	}{
		{"empty", EstimateRequest{}, "counts: required"},
		{"not power of two", EstimateRequest{Counts: []int64{0, 1, 2}}, "power of two"},
		{"one source", EstimateRequest{Counts: []int64{0, 5}}, "2..16 sources"},
		{"unobserved cell set", EstimateRequest{Counts: []int64{7, 1, 2, 3}}, "counts[0]"},
		{"negative count", EstimateRequest{Counts: []int64{0, 1, -2, 3}}, "negative"},
		{"all zero", EstimateRequest{Counts: []int64{0, 0, 0, 0}}, "all observable cells are zero"},
		{"source name mismatch", EstimateRequest{Counts: []int64{0, 1, 2, 3}, Sources: []string{"A"}}, "sources"},
		{"negative limit", EstimateRequest{Counts: []int64{0, 1, 2, 3}, Limit: -1}, "limit"},
		{"bad ic", EstimateRequest{Counts: []int64{0, 1, 2, 3}, IC: "DIC"}, "ic"},
		{"bad divisor", EstimateRequest{Counts: []int64{0, 1, 2, 3}, Divisor: "7"}, "divisor"},
		{"bad alpha", EstimateRequest{Counts: []int64{0, 1, 2, 3}, Alpha: 2}, "alpha"},
		{"negative max_terms", EstimateRequest{Counts: []int64{0, 1, 2, 3}, MaxTerms: -1}, "max_terms"},
		{"negative max_order", EstimateRequest{Counts: []int64{0, 1, 2, 3}, MaxOrder: -1}, "max_order"},
		{"count above 2^53", EstimateRequest{Counts: []int64{0, 1, 1<<53 + 1, 3}}, "counts[2]"},
		{"total above 2^53", EstimateRequest{Counts: []int64{0, 1 << 52, 1 << 52, 1}}, "total through counts[3]"},
		{"int64 overflow", EstimateRequest{Counts: []int64{0, math.MaxInt64 / 2, math.MaxInt64 / 2, math.MaxInt64 / 2}}, "counts[1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Normalize()
			if err == nil {
				t.Fatal("expected a validation error")
			}
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("error %v is not a *RequestError", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNormalizeCountBound: counts totalling exactly 2^53 are accepted;
// the bound is on the value, not a proxy for "large".
func TestNormalizeCountBound(t *testing.T) {
	req := EstimateRequest{Counts: []int64{0, 1 << 52, 1<<52 - 1, 1}}
	if err := req.Normalize(); err != nil {
		t.Fatalf("total of exactly 2^53 rejected: %v", err)
	}
}

// TestKeyCanonical: a request written with explicit defaults and one
// relying on Normalize's fill-in must share a canonical key, while any
// semantic difference must change it.
func TestKeyCanonical(t *testing.T) {
	a := threeSourceRequest()
	b := threeSourceRequest()
	b.IC = "BIC"
	b.Divisor = "adaptive1000"
	b.Alpha = 1e-7
	yes := true
	b.Interval = &yes
	for _, r := range []*EstimateRequest{a, b} {
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if a.Key() != b.Key() {
		t.Fatal("explicit defaults and filled defaults must share a key")
	}
	c := threeSourceRequest()
	c.Limit = 6000
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.Key() == a.Key() {
		t.Fatal("different limits must produce different keys")
	}
}

// TestComputeDeterministic pins the byte-identity core of the API
// contract: computing the same normalised request twice from scratch gives
// identical encoded responses.
func TestComputeDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 3; i++ {
		req := threeSourceRequest()
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		resp, err := Compute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		enc := resp.Encode()
		if first == nil {
			first = enc
		} else if !bytes.Equal(first, enc) {
			t.Fatalf("run %d produced different bytes", i)
		}
	}
	if !bytes.Contains(first, []byte(`"api": "ghosts.api/v1"`)) {
		t.Fatalf("missing api version in %s", first)
	}
}

func TestComputeEstimateShape(t *testing.T) {
	req := threeSourceRequest()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	resp, err := Compute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Observed != 1380 {
		t.Fatalf("observed = %d, want 1380", resp.Observed)
	}
	if resp.Estimate < float64(resp.Observed) {
		t.Fatalf("estimate %v below observed %d", resp.Estimate, resp.Observed)
	}
	if resp.Estimate > req.Limit {
		t.Fatalf("estimate %v exceeds truncation limit %v", resp.Estimate, req.Limit)
	}
	if resp.Interval == nil {
		t.Fatal("interval requested but absent")
	}
	if resp.Interval.Lo > resp.Estimate || resp.Interval.Hi < resp.Estimate {
		t.Fatalf("interval [%v, %v] does not bracket estimate %v",
			resp.Interval.Lo, resp.Interval.Hi, resp.Estimate)
	}
	if resp.Key != req.Key() {
		t.Fatal("response key differs from request key")
	}
}

func TestComputeNoInterval(t *testing.T) {
	req := threeSourceRequest()
	no := false
	req.Interval = &no
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	resp, err := Compute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Interval != nil {
		t.Fatal("interval disabled but present")
	}
}
