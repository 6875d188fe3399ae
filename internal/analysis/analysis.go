// Package analysis implements the closed-form performance model of
// Section 4.4.1 of the paper, used both for the "Theoretical" curve in
// Figure 3 and for configuring the security/accuracy trade-off of the
// threshold t.
//
// Model, following the paper: deploy nodes with uniform density D (nodes per
// square meter) and radio range R. For two tentative neighbors u, v at
// distance x = c·R (0 ≤ c ≤ 1), the expected number of sensor nodes in
// radio range of both is
//
//	N(c) = D · R² · (2·arccos(c/2) − c·√(1 − (c/2)²)) − 2
//
// i.e. density times the lens area of the two radio disks; the "− 2"
// excludes u and v themselves, which always lie in the lens but never count
// as their own common neighbors. Let τ be the largest c with N(τ) ≥ t+1.
// Then a neighbor is validated (shares ≥ t+1 common neighbors) exactly when
// it is closer than τ·R in expectation, and the expected fraction of actual
// neighbors that end up in the functional neighbor list is
//
//	f_b = (D·π·(τR)² − 1) / (D·π·R² − 1) ≈ τ².
package analysis

import (
	"math"

	"snd/internal/geometry"
)

// Model carries the deployment parameters of the closed-form analysis.
type Model struct {
	// Density is the deployment density D in nodes per square meter.
	Density float64
	// Range is the maximum radio range R in meters.
	Range float64
}

// ExpectedNeighbors returns D·π·R² − 1, the expected number of actual
// neighbors of a node away from the field border.
func (m Model) ExpectedNeighbors() float64 {
	return m.Density*math.Pi*m.Range*m.Range - 1
}

// CommonNeighbors returns N(c): the expected number of common neighbors of
// two nodes at distance c·R, excluding the two endpoints themselves.
func (m Model) CommonNeighbors(c float64) float64 {
	n := m.Density*m.Range*m.Range*geometry.LensAreaNormalized(c) - 2
	if n < 0 {
		return 0
	}
	return n
}

// Tau returns τ, the largest normalized distance c ∈ [0, 1] at which two
// neighbors still share at least t+1 expected common neighbors. N(c) is
// strictly decreasing on (0, 2), so τ is found by bisection. Tau returns 0
// when even co-located nodes fall short of the threshold.
func (m Model) Tau(t int) float64 {
	need := float64(t + 1)
	if m.CommonNeighbors(0) < need {
		return 0
	}
	if m.CommonNeighbors(1) >= need {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.CommonNeighbors(mid) >= need {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// AccuracyExact returns the paper's f_b = (D·π·(τR)² − 1) / (D·π·R² − 1),
// clamped to [0, 1]. This is the expected fraction of a benign node's
// actual neighbors that appear in its functional neighbor list.
func (m Model) AccuracyExact(t int) float64 {
	tau := m.Tau(t)
	denom := m.Density*math.Pi*m.Range*m.Range - 1
	if denom <= 0 {
		return 0
	}
	num := m.Density*math.Pi*tau*tau*m.Range*m.Range - 1
	if num < 0 {
		num = 0
	}
	f := num / denom
	if f > 1 {
		return 1
	}
	return f
}

// Accuracy returns the paper's simplified estimate f_b ≈ τ².
func (m Model) Accuracy(t int) float64 {
	tau := m.Tau(t)
	return tau * tau
}

// MaxThreshold returns the largest threshold t for which the model predicts
// any validation at all (τ > 0), i.e. floor(N(0)) − 1.
func (m Model) MaxThreshold() int {
	n0 := m.CommonNeighbors(0)
	if n0 < 1 {
		return 0
	}
	return int(math.Floor(n0)) - 1
}

// ThresholdForAccuracy returns the largest threshold t that still achieves
// accuracy ≥ target according to the τ² estimate. It returns 0 if no
// positive threshold achieves the target. This is the configuration helper
// implied by the paper's "Figures 3 and 4 provide a way to configure t to
// trade off security with performance."
func (m Model) ThresholdForAccuracy(target float64) int {
	lo, hi := 0, m.MaxThreshold()
	if hi <= 0 || m.Accuracy(0) < target {
		return 0
	}
	// Accuracy is non-increasing in t: binary search the boundary.
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.Accuracy(mid) >= target {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// MinimumDeploymentSize returns |G_min(F)| = t + 3 for the paper's protocol:
// a functional relation needs the two endpoints plus t+1 distinct common
// neighbors (Section 4.4).
func MinimumDeploymentSize(t int) int { return t + 3 }

// SafetyRadius returns the paper's guaranteed safety radius for the base
// protocol and its update extension: 2R for m = 0 updates would be wrong —
// the bound is (m+1)·R per Theorem 4 with Theorem 3 as the m = 1 base case,
// i.e. base protocol (no updates, m = 1 in the induction) gives 2R, and a
// record updated m times gives (m+1)·R.
func SafetyRadius(r float64, updates int) float64 {
	if updates < 1 {
		updates = 1
	}
	return float64(updates+1) * r
}
