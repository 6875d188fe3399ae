package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsInf(ax, 0) {
			return true
		}
		p := Point{X: math.Mod(ax, 1e6), Y: math.Mod(ay, 1e6)}
		q := Point{X: math.Mod(bx, 1e6), Y: math.Mod(by, 1e6)}
		d := p.Dist(q)
		return almostEqual(d*d, p.Dist2(q), 1e-3*(1+d*d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInRangeBoundary(t *testing.T) {
	p := Point{0, 0}
	if !p.InRange(Point{50, 0}, 50) {
		t.Error("boundary point should be in range (inclusive)")
	}
	if p.InRange(Point{50.001, 0}, 50) {
		t.Error("point past boundary should be out of range")
	}
}

func TestVectorOps(t *testing.T) {
	a, b := Point{1, 2}, Point{3, 5}
	if got := a.Add(b); got != (Point{4, 7}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewField(100, 50)
	if r.Width() != 100 || r.Height() != 50 {
		t.Fatalf("dims = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 5000 {
		t.Errorf("Area = %v", r.Area())
	}
	if got := r.Center(); got != (Point{50, 25}) {
		t.Errorf("Center = %v", got)
	}
}

func TestRectClamp(t *testing.T) {
	r := NewField(10, 10)
	tests := []struct {
		give Point
		want Point
	}{
		{Point{-1, 5}, Point{0, 5}},
		{Point{5, 11}, Point{5, 10}},
		{Point{3, 3}, Point{3, 3}},
	}
	for _, tt := range tests {
		if got := r.Clamp(tt.give); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestRectInset(t *testing.T) {
	r := NewField(100, 100)
	in := r.Inset(10)
	if in.Min != (Point{10, 10}) || in.Max != (Point{90, 90}) {
		t.Errorf("Inset = %+v", in)
	}
	// Over-inset collapses to center.
	tiny := NewField(4, 4).Inset(10)
	if tiny.Min != tiny.Max || tiny.Min != (Point{2, 2}) {
		t.Errorf("over-inset = %+v", tiny)
	}
}

func TestLensAreaKnownValues(t *testing.T) {
	// Coincident circles: full disk.
	if got, want := LensAreaNormalized(0), math.Pi; !almostEqual(got, want, 1e-9) {
		t.Errorf("LensAreaNormalized(0) = %v, want %v", got, want)
	}
	// Tangent circles: zero.
	if got := LensAreaNormalized(2); got != 0 {
		t.Errorf("LensAreaNormalized(2) = %v, want 0", got)
	}
	// d = R: A/R² = 2·acos(1/2) − √(3)/2 = 2π/3 − √3/2.
	want := 2*math.Pi/3 - math.Sqrt(3)/2
	if got := LensAreaNormalized(1); !almostEqual(got, want, 1e-9) {
		t.Errorf("LensAreaNormalized(1) = %v, want %v", got, want)
	}
}

func TestLensAreaMonotoneDecreasing(t *testing.T) {
	prev := math.Inf(1)
	for c := 0.0; c <= 2; c += 0.02 {
		a := LensAreaNormalized(c)
		if a > prev+1e-9 {
			t.Fatalf("LensAreaNormalized not decreasing at c=%v: %v > %v", c, a, prev)
		}
		if a < 0 {
			t.Fatalf("LensAreaNormalized negative at c=%v", c)
		}
		prev = a
	}
}

func TestLensAreaMatchesMonteCarlo(t *testing.T) {
	// Estimate the intersection area of two R-disks by sampling and compare
	// against the closed form, validating the formula behind Figure 3's
	// theoretical curve.
	const (
		r       = 50.0
		d       = 30.0
		samples = 200000
	)
	rng := rand.New(rand.NewSource(42))
	c1 := Point{0, 0}
	c2 := Point{d, 0}
	// Sample within the bounding box of the union.
	lo, hi := Point{-r, -r}, Point{d + r, r}
	in := 0
	for i := 0; i < samples; i++ {
		p := Point{
			X: lo.X + rng.Float64()*(hi.X-lo.X),
			Y: lo.Y + rng.Float64()*(hi.Y-lo.Y),
		}
		if c1.InRange(p, r) && c2.InRange(p, r) {
			in++
		}
	}
	box := (hi.X - lo.X) * (hi.Y - lo.Y)
	est := float64(in) / samples * box
	want := r * r * LensAreaNormalized(d/r)
	if math.Abs(est-want)/want > 0.02 {
		t.Errorf("Monte Carlo lens area = %v, closed form = %v", est, want)
	}
}

func TestLensAreaNormalizedConsistency(t *testing.T) {
	const r = 37.0
	for c := 0.0; c <= 2.0; c += 0.05 {
		// The unnormalized textbook form at d = c·r.
		d := c * r
		want := 2*r*r*math.Acos(d/(2*r)) - (d/2)*math.Sqrt(4*r*r-d*d)
		got := LensAreaNormalized(c) * r * r
		if !almostEqual(got, want, 1e-6) {
			t.Fatalf("normalized mismatch at c=%v: %v vs %v", c, got, want)
		}
	}
}

func TestEnclosingCircleSmallCases(t *testing.T) {
	if c := EnclosingCircle(nil); c.Radius != 0 {
		t.Errorf("empty input radius = %v", c.Radius)
	}
	one := EnclosingCircle([]Point{{3, 4}})
	if one.Center != (Point{3, 4}) || one.Radius != 0 {
		t.Errorf("single point circle = %+v", one)
	}
	two := EnclosingCircle([]Point{{0, 0}, {2, 0}})
	if two.Center != (Point{1, 0}) || !almostEqual(two.Radius, 1, 1e-9) {
		t.Errorf("two point circle = %+v", two)
	}
}

func TestEnclosingCircleEquilateralTriangle(t *testing.T) {
	// Circumradius of an equilateral triangle with side s is s/√3.
	s := 2.0
	pts := []Point{
		{0, 0},
		{s, 0},
		{s / 2, s * math.Sqrt(3) / 2},
	}
	c := EnclosingCircle(pts)
	want := s / math.Sqrt(3)
	if !almostEqual(c.Radius, want, 1e-9) {
		t.Errorf("radius = %v, want %v", c.Radius, want)
	}
}

func TestEnclosingCircleCollinear(t *testing.T) {
	pts := []Point{{0, 0}, {5, 0}, {10, 0}, {3, 0}}
	c := EnclosingCircle(pts)
	if !almostEqual(c.Radius, 5, 1e-9) || !almostEqual(c.Center.X, 5, 1e-9) {
		t.Errorf("collinear circle = %+v", c)
	}
}

func TestEnclosingCircleContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		}
		c := EnclosingCircle(pts)
		for _, p := range pts {
			if !c.Contains(p) {
				t.Fatalf("trial %d: point %v outside circle %+v", trial, p, c)
			}
		}
	}
}

func TestEnclosingCircleIsMinimal(t *testing.T) {
	// The smallest enclosing circle of points sampled on a circle of radius
	// ρ must have radius ≈ ρ (not larger).
	rng := rand.New(rand.NewSource(5))
	const rho = 20.0
	pts := make([]Point, 40)
	for i := range pts {
		a := rng.Float64() * 2 * math.Pi
		pts[i] = Point{X: 50 + rho*math.Cos(a), Y: 50 + rho*math.Sin(a)}
	}
	c := EnclosingCircle(pts)
	if c.Radius > rho*1.0001 {
		t.Errorf("radius = %v, want ≤ %v", c.Radius, rho)
	}
}

func BenchmarkEnclosingCircle(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EnclosingCircle(pts)
	}
}

func BenchmarkLensArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = LensAreaNormalized(0.6)
	}
}
