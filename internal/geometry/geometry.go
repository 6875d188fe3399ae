// Package geometry provides the planar primitives the simulator and the
// analytical model are built on: points and distances, rectangular
// deployment fields, unit-disk radio coverage, the circle-intersection
// ("lens") area behind the paper's N(c) formula, and smallest enclosing
// circles, which turn the paper's d-safety property (Definition 6) into a
// measurable quantity.
package geometry

import (
	"fmt"
	"math"
)

// Point is a location in the deployment plane, in meters.
type Point struct {
	X float64
	Y float64
}

// String renders the point with centimeter precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{X: p.X * k, Y: p.Y * k} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance, avoiding the square root on
// hot paths such as range queries.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// InRange reports whether q lies within radio range r of p. Range is
// inclusive, matching the unit-disk model used by the paper ("two sensor
// nodes can directly communicate if the distance between them is less than
// the radio range R"; the boundary is measure zero either way).
func (p Point) InRange(q Point, r float64) bool {
	return p.Dist2(q) <= r*r
}

// Rect is an axis-aligned rectangle, used as the deployment field.
type Rect struct {
	Min Point
	Max Point
}

// NewField returns the rectangle [0,w] x [0,h].
func NewField(w, h float64) Rect {
	return Rect{Max: Point{X: w, Y: h}}
}

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle's area in square meters.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the rectangle's center point. Figure 3's simulation samples
// the node closest to the field center to avoid border effects.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Clamp returns the point in the rectangle closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Inset returns the rectangle shrunk by d on every side. If the rectangle is
// too small the result collapses to its center.
func (r Rect) Inset(d float64) Rect {
	in := Rect{
		Min: Point{X: r.Min.X + d, Y: r.Min.Y + d},
		Max: Point{X: r.Max.X - d, Y: r.Max.Y - d},
	}
	if in.Min.X > in.Max.X {
		c := r.Center().X
		in.Min.X, in.Max.X = c, c
	}
	if in.Min.Y > in.Max.Y {
		c := r.Center().Y
		in.Min.Y, in.Max.Y = c, c
	}
	return in
}

// Circle is a disk in the plane.
type Circle struct {
	Center Point
	Radius float64
}

// Contains reports whether p lies inside the circle (inclusive, with a small
// tolerance so that points used to construct the circle test as inside).
func (c Circle) Contains(p Point) bool {
	const eps = 1e-9
	return c.Center.Dist2(p) <= (c.Radius+eps)*(c.Radius+eps)
}

// LensAreaNormalized returns the area of the intersection of two circles
// of radius R whose centers are c·R apart, divided by R²: the paper's
// 2·arccos(c/2) − c·sqrt(1 − (c/2)²) with c = d/R ∈ [0, 2]. This is the
// geometric heart of the paper's estimate of the expected number of common
// neighbors of two nodes: with deployment density D,
// D·R²·LensAreaNormalized(d/R) counts nodes in radio range of both
// endpoints.
func LensAreaNormalized(c float64) float64 {
	if c <= 0 {
		return math.Pi
	}
	if c >= 2 {
		return 0
	}
	return 2*math.Acos(c/2) - c*math.Sqrt(1-c*c/4)
}

// EnclosingCircle returns the smallest circle containing every point in pts,
// computed with Welzl's move-to-front algorithm in expected linear time.
// The caller supplies the iteration order; for determinism across runs,
// callers should pass points in a canonical order (the implementation does
// not shuffle). An empty input yields the zero Circle.
//
// The paper's d-safety audit uses this: a compromised node satisfies the
// d-safety property iff the smallest circle enclosing the (original
// deployment points of the) benign functional neighbors of the node and all
// its replicas has radius ≤ d.
func EnclosingCircle(pts []Point) Circle {
	if len(pts) == 0 {
		return Circle{}
	}
	// Welzl's algorithm, iterative move-to-front formulation.
	work := make([]Point, len(pts))
	copy(work, pts)
	c := circleFrom1(work[0])
	for i := 1; i < len(work); i++ {
		if c.Contains(work[i]) {
			continue
		}
		c = circleFrom1(work[i])
		for j := 0; j < i; j++ {
			if c.Contains(work[j]) {
				continue
			}
			c = circleFrom2(work[i], work[j])
			for k := 0; k < j; k++ {
				if c.Contains(work[k]) {
					continue
				}
				c = circleFrom3(work[i], work[j], work[k])
			}
		}
	}
	return c
}

func circleFrom1(a Point) Circle { return Circle{Center: a} }

func circleFrom2(a, b Point) Circle {
	center := Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
	return Circle{Center: center, Radius: center.Dist(a)}
}

func circleFrom3(a, b, c Point) Circle {
	// Circumcircle; falls back to the best 2-point circle when the points
	// are (nearly) collinear.
	ax, ay := b.X-a.X, b.Y-a.Y
	bx, by := c.X-a.X, c.Y-a.Y
	d := 2 * (ax*by - ay*bx)
	if math.Abs(d) < 1e-12 {
		// Collinear: the diameter is the farthest pair.
		best := circleFrom2(a, b)
		if alt := circleFrom2(a, c); alt.Radius > best.Radius {
			best = alt
		}
		if alt := circleFrom2(b, c); alt.Radius > best.Radius {
			best = alt
		}
		return best
	}
	ux := (by*(ax*ax+ay*ay) - ay*(bx*bx+by*by)) / d
	uy := (ax*(bx*bx+by*by) - bx*(ax*ax+ay*ay)) / d
	center := Point{X: a.X + ux, Y: a.Y + uy}
	return Circle{Center: center, Radius: center.Dist(a)}
}
