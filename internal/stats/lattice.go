package stats

import (
	"errors"
	"math"

	"ghosts/internal/telemetry"
)

// GLMResult holds a fitted Poisson regression.
type GLMResult struct {
	Coef       []float64 // coefficient per design column
	Fitted     []float64 // fitted Poisson rate λ per lattice cell
	LogLik     float64   // maximised log-likelihood (full, incl. constants)
	Iterations int
	Converged  bool
}

// maxEta bounds the linear predictor so exp never overflows; e^30 ≈ 1e13
// comfortably exceeds any count in the IPv4 space.
const maxEta = 30

// Workspace holds the scratch buffers of one Fisher-scoring fit so hot
// loops (the stepwise search, profile-interval bisection, bootstrap
// replication) can reuse them across fits instead of reallocating every
// iteration. The zero value is ready; buffers grow on demand and are
// retained. A Workspace is not safe for concurrent use — keep one per
// goroutine.
type Workspace struct {
	xtwx, chol []float64 // p×p normal equations and Cholesky factor
	xtr        []float64 // p-vector Xᵀ(y−μ) / solve scratch
	delta      []float64 // Fisher step
	coef, cand []float64 // current and trial coefficients

	// Per-cell buffers, all 2^t long. The cand-suffixed buffers are filled
	// by logLik for trial coefficients and swapped in wholesale when a
	// trial is accepted, so the scoring loop never recomputes η, λ or the
	// truncation-negligibility test.
	eta, etaCand []float64 // linear predictor per lattice cell
	lam, lamCand []float64 // per-cell rate exp(clamped η)
	tn, tnCand   []bool    // per-cell: truncation negligible (or absent)
	zw, zr       []float64 // zeta-transform buffers for weights and residuals

	// One-entry cache of negligibleMax: the bits of the last limit l and
	// its threshold λ*(l).
	negKey uint64
	negMax float64
	negOK  bool
}

// reserve sizes every buffer for a p-column fit over an n-cell lattice.
func (ws *Workspace) reserve(n, p int) {
	grow := func(b []float64, want int) []float64 {
		if cap(b) < want {
			return make([]float64, want)
		}
		return b[:want]
	}
	growBool := func(b []bool, want int) []bool {
		if cap(b) < want {
			return make([]bool, want)
		}
		return b[:want]
	}
	ws.xtwx = grow(ws.xtwx, p*p)
	ws.chol = grow(ws.chol, p*p)
	ws.xtr = grow(ws.xtr, p)
	ws.delta = grow(ws.delta, p)
	ws.coef = grow(ws.coef, p)
	ws.cand = grow(ws.cand, p)
	ws.eta = grow(ws.eta, n)
	ws.etaCand = grow(ws.etaCand, n)
	ws.lam = grow(ws.lam, n)
	ws.lamCand = grow(ws.lamCand, n)
	ws.zw = grow(ws.zw, n)
	ws.zr = grow(ws.zr, n)
	ws.tn = growBool(ws.tn, n)
	ws.tnCand = growBool(ws.tnCand, n)
}

// Lattice describes a Poisson GLM whose design is a pure subset indicator
// over the 2^T capture-history lattice: column j of the design is
// x[s][j] = 1 iff Masks[j] ⊆ s. The log-linear CR designs of §3.3 are all
// of this form (intercept mask 0, main effects single bits, interactions
// multi-bit masks), which collapses the IRLS normal equations to zeta
// transforms:
//
//	(XᵀWX)[j][k] = Σ_{s ⊇ Masks[j]|Masks[k]} w_s   (one superset sum of w)
//	(Xᵀr)[j]     = Σ_{s ⊇ Masks[j]} r_s            (one superset sum of r)
//	η_s          = Σ_{m ⊆ s} c_m, c scattered β    (one subset sum)
//
// so each Fisher-scoring iteration costs O(T·2^T + p²) instead of the
// O(p²·2^T) of accumulating a materialised design. Rows are lattice cells:
// cell s holds the observation with capture history s. Cell 0 (the
// unobserved history) is excluded unless Cell0 is set — the
// profile-likelihood fit pins the unobserved count by including exactly
// that cell, whose design row is the intercept alone, i.e. lattice cell 0.
type Lattice struct {
	T     int
	Masks []int // one mask per design column, distinct; column 0 is the intercept (mask 0)
	Cell0 bool  // include lattice cell 0 as an observation row (profile fits)
}

// Validate checks the lattice description without fitting.
func (ld Lattice) Validate() error {
	if ld.T < 1 || ld.T > 16 {
		return errors.New("stats: lattice supports 1..16 sources")
	}
	n := 1 << uint(ld.T)
	p := len(ld.Masks)
	if p == 0 {
		return errors.New("stats: lattice design needs at least one column")
	}
	rows := n - 1
	if ld.Cell0 {
		rows = n
	}
	if p > rows {
		return errors.New("stats: lattice design must have at most one column per cell")
	}
	for i, m := range ld.Masks {
		if m < 0 || m >= n {
			return errors.New("stats: lattice mask out of range")
		}
		for _, prev := range ld.Masks[:i] {
			if prev == m {
				return errors.New("stats: duplicate lattice mask")
			}
		}
	}
	return nil
}

// SubsetSum replaces v (length 2^t, indexed by cell mask) with its subset
// zeta transform: out[s] = Σ_{m ⊆ s} v[m], in O(t·2^t). The bit-plane
// passes walk aligned blocks pairwise (lo half into hi half), which visits
// the updated cells in the same ascending order as the naive masked loop —
// the additions are bit-identical — without a branch per cell.
func SubsetSum(t int, v []float64) {
	n := 1 << uint(t)
	v = v[:n]
	for i := 0; i < t; i++ {
		bit := 1 << uint(i)
		for base := 0; base < n; base += bit << 1 {
			lo := v[base : base+bit : base+bit]
			hi := v[base+bit : base+bit<<1]
			for k := range hi {
				hi[k] += lo[k]
			}
		}
	}
}

// SupersetSum replaces v (length 2^t, indexed by cell mask) with its
// superset zeta transform: out[s] = Σ_{m ⊇ s} v[m], in O(t·2^t). Same
// blocked, branch-free walk as SubsetSum (hi half into lo half), preserving
// the naive loop's update order exactly.
func SupersetSum(t int, v []float64) {
	n := 1 << uint(t)
	v = v[:n]
	for i := 0; i < t; i++ {
		bit := 1 << uint(i)
		for base := 0; base < n; base += bit << 1 {
			lo := v[base : base+bit : base+bit]
			hi := v[base+bit : base+bit<<1]
			for k := range lo {
				lo[k] += hi[k]
			}
		}
	}
}

// LatticeEta writes the linear predictor η_s = Σ_{j: Masks[j] ⊆ s} coef[j]
// for every lattice cell into eta (length 2^t): coefficients are scattered
// onto their column masks and subset-summed. η is unclamped.
func LatticeEta(t int, masks []int, coef []float64, eta []float64) {
	for s := range eta {
		eta[s] = 0
	}
	for j, m := range masks {
		eta[m] += coef[j]
	}
	SubsetSum(t, eta)
}

// Fit runs the lattice-aware Fisher-scoring fit. y holds the per-cell
// counts (length 2^T, indexed by capture-history mask; y[0] is ignored
// unless Cell0), limits the optional per-cell right-truncation bounds (nil
// for plain Poisson), init optional warm-start coefficients in column
// order, and ws reusable scratch (nil for a one-off fit).
//
// Coef is in column order, LogLik is the full log-likelihood of the
// active cells including the Σ ln y_s! constant, and Fitted is indexed by
// lattice cell (length 2^T; entry 0 is the fitted unobserved-cell rate
// whether or not Cell0 is set). The differential tests hold the result to
// a dense row-major reference fit of the materialised design within 1e-9
// relative; summation order differs, so the two do not agree bit-exactly.
func (ld Lattice) Fit(y, limits, init []float64, ws *Workspace) (*GLMResult, error) {
	if err := ld.check(y, limits); err != nil {
		return nil, err
	}
	return ld.fit(y, limits, ld.LogFactSum(y), init, ws)
}

// FitConst is Fit with the table constant Σ ln y_s! supplied by the
// caller, who computed it once with LogFactSum(y) for a y it refits under
// many designs (the stepwise search). The result is bit-identical to
// Fit(y, limits, init, ws).
func (ld Lattice) FitConst(y, limits []float64, logFactSum float64, init []float64, ws *Workspace) (*GLMResult, error) {
	if err := ld.check(y, limits); err != nil {
		return nil, err
	}
	return ld.fit(y, limits, logFactSum, init, ws)
}

// LogFactSum returns Σ ln y_s! over the lattice's active cells (cell 0
// only when Cell0 is set), the data-only term of the log-likelihood. It
// depends on T, Cell0 and y alone — never on the design's masks.
func (ld Lattice) LogFactSum(y []float64) float64 {
	first := 1
	if ld.Cell0 {
		first = 0
	}
	var sum float64
	for s := first; s < 1<<uint(ld.T); s++ {
		sum += LogFactorial(y[s])
	}
	return sum
}

// check validates the design and the vector lengths of a fit.
func (ld Lattice) check(y, limits []float64) error {
	if err := ld.Validate(); err != nil {
		return err
	}
	n := 1 << uint(ld.T)
	if len(y) != n || (limits != nil && len(limits) != n) {
		return errors.New("stats: lattice dimension mismatch")
	}
	return nil
}

// fit is the scoring loop behind Fit and FitConst, on checked inputs.
func (ld Lattice) fit(y, limits []float64, logFactSum float64, init []float64, ws *Workspace) (*GLMResult, error) {
	n := 1 << uint(ld.T)
	p := len(ld.Masks)
	if ws == nil {
		ws = &Workspace{}
	}
	ws.reserve(n, p)

	first := 1 // first active cell
	if ld.Cell0 {
		first = 0
	}
	coef := ws.coef[:p]
	if len(init) == p {
		copy(coef, init)
	} else {
		meanY := 0.0
		for s := first; s < n; s++ {
			meanY += y[s]
		}
		meanY /= float64(n - first)
		if meanY <= 0 {
			meanY = 0.5
		}
		for j := range coef {
			coef[j] = 0
		}
		coef[0] = math.Log(meanY)
	}

	lim := func(s int) float64 {
		if limits == nil {
			return math.Inf(1)
		}
		return limits[s]
	}
	ll := ld.logLik(y, limits, coef, logFactSum, ws)
	// logLik left η(coef), λ(coef) and the per-cell truncation flags in the
	// candidate buffers; swap them in so every iteration reads the current
	// values without recomputing the subset sum, the exponentials or the
	// negligibility tests: the accepted candidate's buffers are swapped the
	// same way below, keeping the invariant that ws.eta/ws.lam/ws.tn always
	// describe the current coef.
	ws.eta, ws.etaCand = ws.etaCand, ws.eta
	ws.lam, ws.lamCand = ws.lamCand, ws.lam
	ws.tn, ws.tnCand = ws.tnCand, ws.tn
	var it int
	converged := false
	for it = 0; it < 200; it++ {
		// Per-cell truncated mean and variance at the current η (λ and the
		// truncation flags already in ws.lam/ws.tn), with the inactive cell
		// 0 zero-weighted so the zeta sums skip it.
		lam, tn := ws.lam[:n], ws.tn[:n]
		zw, zr := ws.zw[:n], ws.zr[:n]
		if !ld.Cell0 {
			zw[0], zr[0] = 0, 0
		}
		for s := first; s < n; s++ {
			lambda := lam[s]
			var mu, w float64
			if tn[s] {
				// Untruncated (or negligibly truncated) cell: the moments
				// degenerate to the plain Poisson's, exactly as Moments
				// returns on its fast path.
				mu, w = lambda, lambda
			} else {
				tp := TruncPoisson{Lambda: lambda, Limit: lim(s)}
				mu, w, _ = tp.Moments()
			}
			if w < 1e-10 {
				w = 1e-10
			}
			zw[s] = w
			zr[s] = y[s] - mu
		}
		// Normal equations by zeta transform: one superset sum each for the
		// weights and residuals, then an O(p²) gather.
		SupersetSum(ld.T, zw)
		SupersetSum(ld.T, zr)
		xtwx := ws.xtwx[:p*p]
		xtr := ws.xtr[:p]
		for a := 0; a < p; a++ {
			ma := ld.Masks[a]
			xtr[a] = zr[ma]
			row := xtwx[a*p:]
			for b := a; b < p; b++ {
				row[b] = zw[ma|ld.Masks[b]]
			}
		}
		for a := 1; a < p; a++ {
			for b := 0; b < a; b++ {
				xtwx[a*p+b] = xtwx[b*p+a]
			}
		}
		delta := ws.delta[:p]
		if err := solveSPDFlat(xtwx, p, xtr, delta, ws.chol); err != nil {
			return nil, err
		}
		// Step halving: accept the longest step that does not reduce the
		// log-likelihood.
		step := 1.0
		var nextLL float64
		improved := false
		cand := ws.cand[:p]
		for h := 0; h < 30; h++ {
			for j := range cand {
				cand[j] = coef[j] + step*delta[j]
			}
			candLL := ld.logLik(y, limits, cand, logFactSum, ws)
			if candLL >= ll-1e-12 && !math.IsNaN(candLL) {
				nextLL, improved = candLL, true
				break
			}
			step /= 2
		}
		if !improved {
			break
		}
		done := math.Abs(nextLL-ll) < 1e-9*(math.Abs(ll)+1)
		ws.coef, ws.cand = cand, coef // swap buffers instead of copying
		// The last logLik call evaluated the accepted candidate, so its η,
		// λ and truncation flags are current again after the swap.
		ws.eta, ws.etaCand = ws.etaCand, ws.eta
		ws.lam, ws.lamCand = ws.lamCand, ws.lam
		ws.tn, ws.tnCand = ws.tnCand, ws.tn
		coef, ll = cand, nextLL
		if done {
			converged = true
			break
		}
	}

	// ws.eta still holds η of the final coefficients (the loop invariant),
	// so the fitted rates need no further transform.
	fitted := make([]float64, n)
	copy(fitted, ws.eta[:n])
	for s := range fitted {
		e := fitted[s]
		if e > maxEta {
			e = maxEta
		}
		fitted[s] = math.Exp(e)
	}
	telemetry.Active().FitDone(it+1, converged)
	outCoef := make([]float64, p)
	copy(outCoef, coef)
	return &GLMResult{
		Coef:       outCoef,
		Fitted:     fitted,
		LogLik:     ll,
		Iterations: it + 1,
		Converged:  converged,
	}, nil
}

// logLik evaluates the (possibly right-truncated) Poisson log-likelihood at
// coef, computing η by subset sum into the workspace's candidate buffers.
// Alongside the likelihood it records per-cell λ = exp(clamped η) and
// whether the cell's truncation is absent or negligible, so the scoring
// loop can reuse both when the candidate is accepted. The negligibility
// test is the exact threshold λ ≤ negligibleMax(l), which agrees with
// TruncationNegligible(l, λ) on every λ and costs one comparison per cell.
func (ld Lattice) logLik(y, limits, coef []float64, logFactSum float64, ws *Workspace) float64 {
	n := 1 << uint(ld.T)
	eta := ws.etaCand[:n]
	lam := ws.lamCand[:n]
	tn := ws.tnCand[:n]
	LatticeEta(ld.T, ld.Masks, coef, eta)
	first := 1
	if ld.Cell0 {
		first = 0
	}
	ll := -logFactSum
	for s := first; s < n; s++ {
		e := eta[s]
		if e > maxEta {
			e = maxEta
		} else if e < -maxEta {
			e = -maxEta
		}
		lambda := math.Exp(e)
		lam[s] = lambda
		ll += y[s]*e - lambda
		if limits != nil && !math.IsInf(limits[s], 1) {
			if l := limits[s]; !ws.negOK || math.Float64bits(l) != ws.negKey {
				ws.cacheNegligibleMax(l)
			}
			if lambda <= ws.negMax {
				tn[s] = true
			} else {
				tn[s] = false
				ll -= LogPoissonCDF(limits[s], lambda)
			}
		} else {
			tn[s] = true
		}
	}
	return ll
}

// negligibleMax returns λ*(l), the largest λ ≥ 0 with
// TruncationNegligible(l, λ), or −Inf when there is none (l ≤ 100). The
// bound λ + 40√λ + 100 is monotone in λ under IEEE rounding (each
// operation is correctly rounded and monotone in its operands), so
// {λ ≥ 0 : TruncationNegligible(l, λ)} is a down-set and
// TruncationNegligible(l, λ) == (λ <= λ*(l)) for every λ ≥ 0 and NaN
// (both false). Non-negative float64s order like their bit patterns, so a
// bisection over the patterns of [0, +Inf] finds λ* in at most 64 steps.
func negligibleMax(l float64) float64 {
	if !TruncationNegligible(l, 0) {
		return math.Inf(-1)
	}
	lo, hi := uint64(0), math.Float64bits(math.Inf(1)) // negligible at lo, not at hi
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if TruncationNegligible(l, math.Float64frombits(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}

// cacheNegligibleMax fills the workspace's one-entry negligibleMax cache
// for l. A fit's cells almost always share one limit, so logLik pays the
// bisection once per workspace and limit instead of a square root per
// cell per evaluation.
func (ws *Workspace) cacheNegligibleMax(l float64) {
	ws.negKey, ws.negMax, ws.negOK = math.Float64bits(l), negligibleMax(l), true
}
