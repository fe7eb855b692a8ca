// Package stats provides the numerical machinery for the log-linear
// capture-recapture models: log-gamma and incomplete-gamma special
// functions, Poisson and right-truncated-Poisson distributions, chi-square
// quantiles, a dense linear solver, and the Poisson GLM fitted by Fisher
// scoring (with optional right truncation of the response, §3.3.1).
//
// Everything here uses only the standard library; the implementations
// follow the classical numerically-stable recipes (Lanczos for log-gamma,
// series/continued-fraction for the regularized incomplete gamma, Acklam's
// rational approximation for the normal quantile).
//
// The main entry points are Lattice.Fit and Lattice.FitConst, the one GLM
// kernel: every capture-recapture design is a subset indicator over the
// 2^t capture-history lattice, so the normal equations reduce to zeta
// transforms (SubsetSum, SupersetSum, LatticeEta) and a reusable Workspace
// carries the scratch between fits. Alongside them: TruncPoisson.Moments
// (truncated mean and variance, §3.3.1), ChiSquare1Quantile (the
// profile-interval cutoff, §3.3.3) and the dense solver Solve. A dense
// row-major fit of the materialised design lives in the package's tests as
// the reference the lattice kernel is checked against.
package stats
