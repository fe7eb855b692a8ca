// Package core implements the paper's primary contribution: log-linear
// capture-recapture (CR) estimation of the number of used-but-unobserved
// IPv4 addresses ("ghosts") from the capture histories of multiple
// measurement sources (§3).
//
// The entry point is Estimator.Estimate (EstimatePoint skips the
// interval), which takes a contingency Table of capture-history counts —
// build one with TableFromSets or NewTable — selects a hierarchical
// log-linear model by AIC/BIC with the paper's count-divisor heuristic and
// −7 rule (§3.3.2, SelectModelCtx), fits it by (optionally right-truncated)
// Poisson maximum likelihood (§3.3.1, FitModel), and returns the point
// estimate together with a profile-likelihood interval (§3.3.3,
// ProfileIntervalScaledCtx). EstimateStratified sums per-stratum estimates
// (§3.4), and BootstrapIntervalCtx offers a parametric-bootstrap
// alternative to the profile interval.
//
// Classical baselines (LincolnPetersen, ChaoLowerBound, SampleCoverage,
// the Heidemann ×1.86 PingCorrection) are provided for comparison, and
// Dependence plus GoodnessOfFit diagnose what the model search did.
package core
