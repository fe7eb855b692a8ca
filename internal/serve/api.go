package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"ghosts/internal/core"
)

// APIVersion identifies the JSON envelope layout shared by the ghostsd
// HTTP API and the ghosts CLI's -json output; bump on incompatible change.
const APIVersion = "ghosts.api/v1"

// EstimateRequest is the body of POST /v1/estimate: a capture-history
// contingency table plus estimator settings. Zero-valued optional fields
// mean "paper default" (§5.1: BIC, adaptive divisor capped at 1000,
// α = 1e-7) and are filled in by Normalize, so a request and its
// normalised form denote the same computation.
type EstimateRequest struct {
	// Sources optionally names the T sources; empty means S1..ST.
	Sources []string `json:"sources,omitempty"`
	// Counts is the capture-history table: 2^T cells, Counts[m] the number
	// of individuals seen by exactly the source set m (bit i ⇔ source i).
	// Cell 0 is the unobserved cell and must be zero — it is what the
	// estimator infers.
	Counts []int64 `json:"counts"`
	// Limit right-truncates the estimate (the routed-space bound); 0 means
	// unbounded.
	Limit float64 `json:"limit,omitempty"`
	// IC is the model-selection criterion: "BIC" (default) or "AIC".
	IC string `json:"ic,omitempty"`
	// Divisor is the likelihood-divisor heuristic: "adaptive1000"
	// (default) or a fixed "1", "10", "100", "1000".
	Divisor string `json:"divisor,omitempty"`
	// Alpha is the profile-interval significance; default 1e-7.
	Alpha float64 `json:"alpha,omitempty"`
	// MaxTerms caps the stepwise search (0 = unlimited pairwise budget).
	MaxTerms int `json:"max_terms,omitempty"`
	// MaxOrder caps the interaction order (0 = t−1).
	MaxOrder int `json:"max_order,omitempty"`
	// Interval disables the profile-likelihood interval when set to false;
	// omitted or null means true.
	Interval *bool `json:"interval,omitempty"`
}

// IntervalJSON is a profile-likelihood interval in the response envelope.
type IntervalJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Alpha float64 `json:"alpha"`
}

// ModelJSON describes the selected log-linear model.
type ModelJSON struct {
	// Terms are the accepted interaction-term names (e.g. "AB", "BC");
	// empty means the independence model.
	Terms   []string `json:"terms"`
	IC      string   `json:"ic"`
	ICValue float64  `json:"ic_value"`
	Divisor float64  `json:"divisor"`
}

// EstimateResponse is the body of a successful POST /v1/estimate and of
// ghosts -json -estimate. Identical normalised requests produce
// byte-identical encodings (Encode), whether computed cold, served from
// cache, or coalesced under single-flight.
type EstimateResponse struct {
	API      string           `json:"api"`
	Kind     string           `json:"kind"` // always "estimate"
	Key      string           `json:"key"`  // canonical request key
	Request  *EstimateRequest `json:"request"`
	Observed int64            `json:"observed"`
	Unseen   float64          `json:"unseen"`
	Estimate float64          `json:"estimate"`
	Interval *IntervalJSON    `json:"interval,omitempty"`
	Model    ModelJSON        `json:"model"`
}

// RequestError is a validation failure; the server maps it to 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// ErrNotFinite is returned by Compute when the estimate or its interval
// is not finite. JSON cannot carry such a value, and the fit behind it has
// broken down: counts near 2^53 pass Normalize yet overflow the kernel's
// rates. The server maps it to a 422.
var ErrNotFinite = errors.New("serve: estimate is not finite; the counts are too large to fit")

// maxCount bounds every count and the total of a request's counts: 2^53
// is the largest range of integers a float64 holds exactly, and a larger
// total can overflow int64 on the way to an infinite N̂.
const maxCount = 1 << 53

// Normalize validates the request in place and fills defaulted fields so
// that equal computations have equal normalised forms (and therefore equal
// canonical keys). It returns a *RequestError when the request is invalid.
func (req *EstimateRequest) Normalize() error {
	n := len(req.Counts)
	if n == 0 {
		return badRequest("counts: required")
	}
	if n&(n-1) != 0 {
		return badRequest("counts: length must be a power of two, got %d", n)
	}
	t := bits.TrailingZeros(uint(n))
	if t < 2 || t > 16 {
		return badRequest("counts: need 2..16 sources (length 4..65536), got %d sources", t)
	}
	if req.Counts[0] != 0 {
		return badRequest("counts[0]: the unobserved cell must be zero, got %d", req.Counts[0])
	}
	var observed int64
	for i, c := range req.Counts {
		if c < 0 {
			return badRequest("counts[%d]: negative count %d", i, c)
		}
		if c > maxCount {
			return badRequest("counts[%d]: count %d exceeds 2^53", i, c)
		}
		// Both terms are at most 2^53, so the sum cannot overflow.
		observed += c
		if observed > maxCount {
			return badRequest("counts: total through counts[%d] exceeds 2^53", i)
		}
	}
	if observed == 0 {
		return badRequest("counts: all observable cells are zero")
	}
	if len(req.Sources) == 0 {
		req.Sources = make([]string, t)
		for i := range req.Sources {
			req.Sources[i] = fmt.Sprintf("S%d", i+1)
		}
	} else if len(req.Sources) != t {
		return badRequest("sources: got %d names for %d sources", len(req.Sources), t)
	}
	if req.Limit < 0 || math.IsInf(req.Limit, 0) || math.IsNaN(req.Limit) {
		return badRequest("limit: must be a finite value ≥ 0 (0 = unbounded)")
	}
	switch req.IC {
	case "":
		req.IC = "BIC"
	case "AIC", "BIC":
	default:
		return badRequest("ic: unknown criterion %q (AIC, BIC)", req.IC)
	}
	switch req.Divisor {
	case "":
		req.Divisor = "adaptive1000"
	case "adaptive1000", "1", "10", "100", "1000":
	default:
		return badRequest("divisor: unknown mode %q (adaptive1000, 1, 10, 100, 1000)", req.Divisor)
	}
	switch {
	case req.Alpha == 0:
		req.Alpha = 1e-7
	case req.Alpha < 0 || req.Alpha >= 1 || math.IsNaN(req.Alpha):
		return badRequest("alpha: must be in (0, 1), got %v", req.Alpha)
	}
	if req.MaxTerms < 0 {
		return badRequest("max_terms: must be ≥ 0")
	}
	if req.MaxOrder < 0 {
		return badRequest("max_order: must be ≥ 0")
	}
	if req.Interval == nil {
		yes := true
		req.Interval = &yes
	}
	return nil
}

// Key returns the canonical request key: the SHA-256 of the normalised
// request's JSON form. Normalize must have succeeded first. Requests that
// denote the same computation map to the same key, which is the cache and
// single-flight identity.
func (req *EstimateRequest) Key() string {
	b, err := json.Marshal(req)
	if err != nil {
		// A normalised request is always marshalable; this is unreachable.
		panic("serve: canonical key: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// estimator translates the normalised request into a core estimator.
func (req *EstimateRequest) estimator() *core.Estimator {
	ic := core.BIC
	if req.IC == "AIC" {
		ic = core.AIC
	}
	var dm core.DivisorMode
	switch req.Divisor {
	case "adaptive1000":
		dm = core.Adaptive1000
	case "1":
		dm = core.Fixed1
	case "10":
		dm = core.Fixed10
	case "100":
		dm = core.Fixed100
	case "1000":
		dm = core.Fixed1000
	}
	limit := req.Limit
	if limit == 0 {
		limit = math.Inf(1)
	}
	est := core.NewEstimator(ic, dm, limit)
	est.Alpha = req.Alpha
	est.MaxTerms = req.MaxTerms
	est.MaxOrder = req.MaxOrder
	return est
}

// Compute runs the estimator for a normalised request. It is the pure
// compute path under the Front's cache/single-flight/admission layers; the
// ghosts CLI's -json mode calls it directly so batch and served responses
// share one code path. The engine checks ctx cooperatively — between
// model-selection rounds, candidate fits and profile-likelihood steps — so
// a canceled request context stops an in-flight fit within one checkpoint
// and surfaces as ctx.Err(). With a never-canceled context the response is
// bit-identical regardless of how ctx was constructed.
func Compute(ctx context.Context, req *EstimateRequest) (*EstimateResponse, error) {
	t := bits.TrailingZeros(uint(len(req.Counts)))
	tb := core.NewTable(t)
	copy(tb.Counts, req.Counts)
	tb.Names = req.Sources
	est := req.estimator()
	var (
		res *core.Result
		err error
	)
	if *req.Interval {
		res, err = est.EstimateCtx(ctx, tb)
	} else {
		res, err = est.EstimatePointCtx(ctx, tb)
	}
	if err != nil {
		return nil, err
	}
	for _, v := range []float64{res.N, res.Unseen, res.IC, res.Divisor, res.Interval.Lo, res.Interval.Hi} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, ErrNotFinite
		}
	}
	resp := &EstimateResponse{
		API:      APIVersion,
		Kind:     "estimate",
		Key:      req.Key(),
		Request:  req,
		Observed: res.Observed,
		Unseen:   res.Unseen,
		Estimate: res.N,
		Model: ModelJSON{
			Terms:   make([]string, 0, len(res.Model.Terms)),
			IC:      req.IC,
			ICValue: res.IC,
			Divisor: res.Divisor,
		},
	}
	for _, h := range res.Model.Terms {
		resp.Model.Terms = append(resp.Model.Terms, core.TermName(h))
	}
	if *req.Interval && res.Interval.Alpha != 0 {
		resp.Interval = &IntervalJSON{Lo: res.Interval.Lo, Hi: res.Interval.Hi, Alpha: res.Interval.Alpha}
	}
	return resp, nil
}

// Encode renders the response as indented JSON with a trailing newline.
// Field order is fixed by the struct layout, so equal responses are equal
// bytes — the property the cache, single-flight and CLI byte-identity
// guarantees rest on.
func (resp *EstimateResponse) Encode() []byte {
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		panic("serve: encode response: " + err.Error())
	}
	return append(b, '\n')
}
