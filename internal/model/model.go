// Package model implements the paper's predictive bandwidth-sharing
// penalty models (Section V) and the comparison baselines (Section II).
//
// Implemented models:
//
//   - GigE: the quantitative Gigabit Ethernet model with parameters
//     (beta, gamma_o, gamma_i) and the "strongly slowed" communication
//     sets Cm_o / Cm_i (Section V-A).
//   - Myrinet: the descriptive state-set model derived from Stop & Go
//     flow control (Section V-B, Figures 5-6).
//   - InfiniBand: a degree model instance for the Infinihost III; the
//     paper lists this as work in progress, we provide it as the natural
//     extension calibrated exactly like the GigE model.
//   - KimLee: the prior-work baseline [Kim & Lee 2001]: a communication's
//     penalty is the maximum number of communications inside its sharing
//     conflict.
//   - Linear: a LogGP-style contention-blind baseline (penalty 1).
//
// All models return static penalties for a fixed conflict graph; the
// progressive re-evaluation the paper's simulator performs lives in
// package predict. The degree-only models (GigE, InfiniBand, KimLee,
// Linear) also implement Kernel, which evaluates the same formulas on a
// densely interned communication set without allocating; their graph
// Penalties methods are adapters over it.
package model

import (
	"math"
)

// clampPenalty enforces the invariant that sharing never speeds a
// communication up: penalties are at least 1.
func clampPenalty(p float64) float64 {
	if p < 1 || math.IsNaN(p) {
		return 1
	}
	return p
}

// maxf returns the larger of two float64s (tiny local helper; the stdlib
// math.Max also handles NaN/inf cases we never produce here).
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
