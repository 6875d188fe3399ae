package analysis

import (
	"math"
	"testing"
)

// paperModel reproduces the setup of Figure 3: 200 nodes in a 100x100 m
// field (density 1 node per 50 m²) with R = 50 m.
func paperModel() Model {
	return Model{Density: 200.0 / (100 * 100), Range: 50}
}

func TestExpectedNeighbors(t *testing.T) {
	m := paperModel()
	// D·π·R² − 1 = 0.02·π·2500 − 1 ≈ 156.08.
	want := 0.02*math.Pi*2500 - 1
	if got := m.ExpectedNeighbors(); math.Abs(got-want) > 1e-9 {
		t.Errorf("ExpectedNeighbors = %v, want %v", got, want)
	}
}

func TestCommonNeighborsEndpoints(t *testing.T) {
	m := paperModel()
	// Co-located: D·π·R² − 2 ≈ 155.08.
	want := 0.02*math.Pi*2500 - 2
	if got := m.CommonNeighbors(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("CommonNeighbors(0) = %v, want %v", got, want)
	}
	// Distance 2R: no overlap, clamped to 0.
	if got := m.CommonNeighbors(2); got != 0 {
		t.Errorf("CommonNeighbors(2) = %v, want 0", got)
	}
}

func TestCommonNeighborsMonotone(t *testing.T) {
	m := paperModel()
	prev := math.Inf(1)
	for c := 0.0; c <= 1.0; c += 0.01 {
		n := m.CommonNeighbors(c)
		if n > prev+1e-9 {
			t.Fatalf("CommonNeighbors increased at c=%v", c)
		}
		prev = n
	}
}

func TestTauBoundaries(t *testing.T) {
	m := paperModel()
	// Threshold far above N(0): no distance qualifies.
	if got := m.Tau(1000); got != 0 {
		t.Errorf("Tau(1000) = %v, want 0", got)
	}
	// Threshold 0 is trivially met by all neighbors: N(1) ≈ 61 > 1.
	if got := m.Tau(0); got != 1 {
		t.Errorf("Tau(0) = %v, want 1", got)
	}
}

func TestTauSolvesThreshold(t *testing.T) {
	m := paperModel()
	for _, tt := range []int{10, 30, 50, 80, 120} {
		tau := m.Tau(tt)
		if tau <= 0 || tau > 1 {
			t.Fatalf("Tau(%d) = %v out of range", tt, tau)
		}
		if tau < 1 {
			// At τ the expected common-neighbor count equals t+1.
			got := m.CommonNeighbors(tau)
			if math.Abs(got-float64(tt+1)) > 1e-6 {
				t.Errorf("CommonNeighbors(Tau(%d)) = %v, want %v", tt, got, float64(tt+1))
			}
		}
	}
}

func TestTauMonotoneInThreshold(t *testing.T) {
	m := paperModel()
	prev := 2.0
	for tt := 0; tt <= m.MaxThreshold(); tt += 5 {
		tau := m.Tau(tt)
		if tau > prev+1e-9 {
			t.Fatalf("Tau increased at t=%d", tt)
		}
		prev = tau
	}
}

func TestAccuracyMatchesPaperShape(t *testing.T) {
	// Figure 3's theoretical curve: accuracy near 1 for small t, dropping
	// steeply toward 0 as t approaches N(1)≈61 from below... it stays high
	// until the threshold exceeds the minimum overlap at distance R, then
	// decays. Spot check the qualitative values discussed in Section 4.4.1:
	// t = 30 → "high accuracy", t = 150 → "low accuracy".
	m := paperModel()
	if acc := m.Accuracy(30); acc < 0.85 {
		t.Errorf("Accuracy(30) = %v, want ≥ 0.85 (paper: high)", acc)
	}
	if acc := m.Accuracy(150); acc > 0.15 {
		t.Errorf("Accuracy(150) = %v, want ≤ 0.15 (paper: low)", acc)
	}
	// t ≤ N(R)−1 ≈ 60: every neighbor qualifies in expectation.
	if acc := m.Accuracy(40); acc != 1 {
		t.Errorf("Accuracy(40) = %v, want 1 (below min overlap)", acc)
	}
}

func TestAccuracyExactVsApprox(t *testing.T) {
	m := paperModel()
	for tt := 0; tt <= 150; tt += 10 {
		approx := m.Accuracy(tt)
		exact := m.AccuracyExact(tt)
		if exact < 0 || exact > 1 || approx < 0 || approx > 1 {
			t.Fatalf("t=%d accuracy out of [0,1]: approx=%v exact=%v", tt, approx, exact)
		}
		// The two estimates agree to within a few percent at this density.
		if math.Abs(exact-approx) > 0.05 {
			t.Errorf("t=%d: exact %v vs approx %v differ too much", tt, exact, approx)
		}
	}
}

func TestAccuracyMonotoneDecreasing(t *testing.T) {
	m := paperModel()
	prev := 1.1
	for tt := 0; tt <= m.MaxThreshold()+5; tt++ {
		acc := m.Accuracy(tt)
		if acc > prev+1e-9 {
			t.Fatalf("Accuracy increased at t=%d: %v > %v", tt, acc, prev)
		}
		prev = acc
	}
}

func TestDensityIncreasesAccuracy(t *testing.T) {
	// Figure 4's claim: at fixed t, higher density validates more neighbors.
	const tt = 30
	prev := -1.0
	for _, per1000 := range []float64{10, 20, 30, 40, 50} {
		m := Model{Density: per1000 / 1000, Range: 50}
		acc := m.Accuracy(tt)
		if acc < prev-1e-9 {
			t.Fatalf("accuracy decreased with density at %v/1000 m²", per1000)
		}
		prev = acc
	}
}

func TestMaxThreshold(t *testing.T) {
	m := paperModel()
	max := m.MaxThreshold()
	if m.Tau(max) <= 0 {
		t.Errorf("Tau(MaxThreshold) = %v, want > 0", m.Tau(max))
	}
	if m.Tau(max+1) != 0 {
		t.Errorf("Tau(MaxThreshold+1) = %v, want 0", m.Tau(max+1))
	}
	sparse := Model{Density: 0.0001, Range: 10}
	if got := sparse.MaxThreshold(); got != 0 {
		t.Errorf("sparse MaxThreshold = %d, want 0", got)
	}
}

func TestThresholdForAccuracy(t *testing.T) {
	m := paperModel()
	for _, target := range []float64{0.5, 0.8, 0.9} {
		tt := m.ThresholdForAccuracy(target)
		if acc := m.Accuracy(tt); acc < target {
			t.Errorf("Accuracy(ThresholdForAccuracy(%v)=%d) = %v < target", target, tt, acc)
		}
		if acc := m.Accuracy(tt + 1); acc >= target {
			t.Errorf("threshold %d not maximal for target %v", tt, target)
		}
	}
	// Unreachable target.
	if got := m.ThresholdForAccuracy(1.1); got != 0 {
		t.Errorf("ThresholdForAccuracy(1.1) = %d, want 0", got)
	}
}

func TestMinimumDeploymentSize(t *testing.T) {
	// Section 4.4: "the size of minimum deployment is t+3".
	for _, tt := range []int{0, 10, 50} {
		if got := MinimumDeploymentSize(tt); got != tt+3 {
			t.Errorf("MinimumDeploymentSize(%d) = %d", tt, got)
		}
	}
}

func TestSafetyRadius(t *testing.T) {
	const r = 50.0
	// Base protocol (Theorem 3): 2R.
	if got := SafetyRadius(r, 1); got != 2*r {
		t.Errorf("SafetyRadius(m=1) = %v, want %v", got, 2*r)
	}
	if got := SafetyRadius(r, 0); got != 2*r {
		t.Errorf("SafetyRadius(m=0) = %v, want %v (clamped)", got, 2*r)
	}
	// Theorem 4: (m+1)·R.
	if got := SafetyRadius(r, 3); got != 4*r {
		t.Errorf("SafetyRadius(m=3) = %v, want %v", got, 4*r)
	}
}

func BenchmarkTau(b *testing.B) {
	m := paperModel()
	for i := 0; i < b.N; i++ {
		_ = m.Tau(30)
	}
}
