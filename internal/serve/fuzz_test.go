package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"testing"
)

// FuzzEstimateRequest runs raw request bodies through Normalize → Compute
// → Encode. Every body must end in one of three ways: Normalize rejects it
// (400), Compute fails (ErrNotFinite or an engine error, both 422), or the
// response carries finite numbers with lo ≤ estimate ≤ hi and encodes
// without panicking. Tables with more than 6 sources are skipped to keep
// each execution short.
func FuzzEstimateRequest(f *testing.F) {
	f.Add([]byte(`{"counts":[0,400,350,120,300,90,80,40],"limit":5000}`))
	f.Add([]byte(`{"counts":[0,4611686018427387903,4611686018427387903,4611686018427387903]}`))
	f.Add([]byte(`{"counts":[0,4503599627370496,4503599627370495,1]}`))
	f.Add([]byte(`{"counts":[0,5,0,0]}`))
	f.Add([]byte(`{"counts":[0,400,350,120,300,90,80,40],"limit":1000}`))
	f.Add([]byte(`{"counts":[0,5,3,0],"limit":5000}`))
	f.Add([]byte(`{"counts":[0,9,4,2,7,1,0,3],"ic":"AIC","divisor":"1","alpha":0.05,"max_terms":1}`))
	f.Add([]byte(`{"counts":[0,3,3,1],"interval":false}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req EstimateRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		if err := req.Normalize(); err != nil {
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("Normalize returned %T, want *RequestError: %v", err, err)
			}
			return
		}
		if bits.TrailingZeros(uint(len(req.Counts))) > 6 {
			t.Skip("more than 6 sources")
		}
		resp, err := Compute(context.Background(), &req)
		if err != nil {
			var reqErr *RequestError
			if errors.As(err, &reqErr) {
				t.Fatalf("Compute rejected a normalised request: %v", err)
			}
			return // ErrNotFinite or an engine error: 422
		}
		finite := func(name string, v float64) {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("%s = %v in a 200 response", name, v)
			}
		}
		finite("estimate", resp.Estimate)
		finite("unseen", resp.Unseen)
		finite("ic_value", resp.Model.ICValue)
		finite("divisor", resp.Model.Divisor)
		if iv := resp.Interval; iv != nil {
			finite("lo", iv.Lo)
			finite("hi", iv.Hi)
			if !(iv.Lo <= resp.Estimate && resp.Estimate <= iv.Hi) {
				t.Fatalf("lo %v, estimate %v, hi %v out of order", iv.Lo, resp.Estimate, iv.Hi)
			}
		}
		if !json.Valid(resp.Encode()) {
			t.Fatal("Encode produced invalid JSON")
		}
	})
}
