package stats

import (
	"errors"
	"math"

	"ghosts/internal/telemetry"
)

// GLMResult holds the fitted Poisson regression.
type GLMResult struct {
	Coef       []float64 // coefficient per design column
	Fitted     []float64 // fitted Poisson rate λ_i per row
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
	mu, wgt    []float64 // per-row truncated mean and variance
	xtwx, chol []float64 // p×p normal equations and Cholesky factor
	xtr        []float64 // p-vector Xᵀ(y−μ) / solve scratch
	delta      []float64 // Fisher step
	coef, cand []float64 // current and trial coefficients

	// Lattice-kernel scratch (stats.Lattice.Fit), all 2^t long. The
	// cand-suffixed buffers are filled by logLik for trial coefficients and
	// swapped in wholesale when a trial is accepted, so the scoring loop
	// never recomputes η, λ or the truncation-negligibility test.
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

// reserve sizes every buffer for an n-row, p-column fit.
func (ws *Workspace) reserve(n, p int) {
	grow := func(b []float64, want int) []float64 {
		if cap(b) < want {
			return make([]float64, want)
		}
		return b[:want]
	}
	ws.mu = grow(ws.mu, n)
	ws.wgt = grow(ws.wgt, n)
	ws.xtwx = grow(ws.xtwx, p*p)
	ws.chol = grow(ws.chol, p*p)
	ws.xtr = grow(ws.xtr, p)
	ws.delta = grow(ws.delta, p)
	ws.coef = grow(ws.coef, p)
	ws.cand = grow(ws.cand, p)
}

// reserveLattice sizes the lattice-only buffers for an n-cell lattice.
func (ws *Workspace) reserveLattice(n int) {
	grow := func(b []float64, want int) []float64 {
		if cap(b) < want {
			return make([]float64, want)
		}
		return b[:want]
	}
	ws.eta = grow(ws.eta, n)
	ws.etaCand = grow(ws.etaCand, n)
	ws.lam = grow(ws.lam, n)
	ws.lamCand = grow(ws.lamCand, n)
	ws.zw = grow(ws.zw, n)
	ws.zr = grow(ws.zr, n)
	if cap(ws.tn) < n {
		ws.tn = make([]bool, n)
	}
	ws.tn = ws.tn[:n]
	if cap(ws.tnCand) < n {
		ws.tnCand = make([]bool, n)
	}
	ws.tnCand = ws.tnCand[:n]
}

// FitPoissonGLM fits a log-link Poisson regression of counts y on the
// design matrix x by Fisher scoring. limits optionally gives a right
// truncation bound per observation (§3.3.1); pass nil or +Inf entries for
// plain Poisson cells. Rows are cells of the capture-history contingency
// table, so n is small (2^t − 1) and dense algebra is appropriate.
func FitPoissonGLM(x [][]float64, y []float64, limits []float64) (*GLMResult, error) {
	return FitPoissonGLMInit(x, y, limits, nil)
}

// FitPoissonGLMInit is FitPoissonGLM with warm-start coefficients; the
// stepwise model search passes the parent model's fit (with a zero for the
// added column), typically cutting Fisher iterations several-fold.
func FitPoissonGLMInit(x [][]float64, y []float64, limits []float64, init []float64) (*GLMResult, error) {
	if len(x) == 0 || len(y) != len(x) {
		return nil, errors.New("stats: empty design or dimension mismatch")
	}
	return FitPoissonGLMFlat(matrixFromRows(x), y, limits, init, nil)
}

// FitPoissonGLMFlat is the allocation-lean core fit over a flat row-major
// design. ws supplies reusable scratch; pass nil for a one-off fit. Only
// the returned GLMResult escapes — the design and workspace are never
// retained.
func FitPoissonGLMFlat(x Matrix, y []float64, limits []float64, init []float64, ws *Workspace) (*GLMResult, error) {
	n, p := x.Rows, x.Cols
	if n == 0 || len(y) != n {
		return nil, errors.New("stats: empty design or dimension mismatch")
	}
	if p == 0 || p > n {
		return nil, errors.New("stats: design must have 1..n columns")
	}
	if ws == nil {
		ws = &Workspace{}
	}
	ws.reserve(n, p)

	coef := ws.coef[:p]
	if len(init) == p {
		copy(coef, init)
	} else {
		// Initialise the intercept (assumed to be column 0 when it is
		// constant 1; harmless otherwise) at log of the mean count; zero the
		// rest.
		meanY := 0.0
		for _, v := range y {
			meanY += v
		}
		meanY /= float64(n)
		if meanY <= 0 {
			meanY = 0.5
		}
		for j := range coef {
			coef[j] = 0
		}
		coef[0] = math.Log(meanY)
	}

	lim := func(i int) float64 {
		if limits == nil {
			return math.Inf(1)
		}
		return limits[i]
	}

	// Σ ln(y_i!) is constant across iterations; hoist it out of the
	// likelihood evaluations.
	var logFactSum float64
	for _, v := range y {
		logFactSum += LogFactorial(v)
	}
	ll := glmLogLik(x, y, limits, coef, logFactSum)
	var it int
	converged := false
	for it = 0; it < 200; it++ {
		// Score and Fisher information at the current coefficients, into
		// the hoisted buffers.
		mu, wgt := ws.mu[:n], ws.wgt[:n]
		for i := 0; i < n; i++ {
			e := dot(x.Row(i), coef)
			if e > maxEta {
				e = maxEta
			} else if e < -maxEta {
				e = -maxEta
			}
			tp := TruncPoisson{Lambda: math.Exp(e), Limit: lim(i)}
			mu[i] = tp.Mean()
			w := tp.Variance()
			if w < 1e-10 {
				w = 1e-10
			}
			wgt[i] = w
		}
		// Normal equations: (XᵀWX) δ = Xᵀ(y − μ).
		xtwx := ws.xtwx[:p*p]
		for j := range xtwx {
			xtwx[j] = 0
		}
		xtr := ws.xtr[:p]
		for j := range xtr {
			xtr[j] = 0
		}
		for i := 0; i < n; i++ {
			xi := x.Row(i)
			r := y[i] - mu[i]
			for a := 0; a < p; a++ {
				va := xi[a]
				if va == 0 {
					continue
				}
				xtr[a] += va * r
				wa := wgt[i] * va
				row := xtwx[a*p:]
				for b := a; b < p; b++ {
					row[b] += wa * xi[b]
				}
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
			candLL := glmLogLik(x, y, limits, cand, logFactSum)
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
		coef, ll = cand, nextLL
		if done {
			converged = true
			break
		}
	}

	fitted := make([]float64, n)
	for i := range fitted {
		e := dot(x.Row(i), coef)
		if e > maxEta {
			e = maxEta
		}
		fitted[i] = math.Exp(e)
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

// glmLogLik evaluates the (possibly right-truncated) Poisson
// log-likelihood of counts y under coefficients coef; logFactSum is the
// precomputed Σ ln(y_i!).
func glmLogLik(x Matrix, y []float64, limits []float64, coef []float64, logFactSum float64) float64 {
	ll := -logFactSum
	for i := 0; i < x.Rows; i++ {
		e := dot(x.Row(i), coef)
		if e > maxEta {
			e = maxEta
		} else if e < -maxEta {
			e = -maxEta
		}
		lambda := math.Exp(e)
		ll += y[i]*e - lambda
		if limits != nil && !math.IsInf(limits[i], 1) && !TruncationNegligible(limits[i], lambda) {
			ll -= LogPoissonCDF(limits[i], lambda)
		}
	}
	return ll
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
