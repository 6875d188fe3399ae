package deploy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"snd/internal/geometry"
	"snd/internal/topology"
)

// bruteInRange is the independent oracle: a literal transcription of the
// pre-grid linear scan, sharing no code with the index under test.
func bruteInRange(l *Layout, h Handle, r float64) []Handle {
	self := l.Device(h)
	if self == nil {
		return nil
	}
	var out []Handle
	for _, d := range l.devices {
		if d.Handle == h {
			continue
		}
		if d.Alive && self.Pos.InRange(d.Pos, r) {
			out = append(out, d.Handle)
		}
	}
	return out
}

func bruteAliveIn(l *Layout, c geometry.Circle) []Handle {
	var out []Handle
	for _, d := range l.devices {
		if d.Alive && c.Center.InRange(d.Pos, c.Radius) {
			out = append(out, d.Handle)
		}
	}
	return out
}

func gridInRange(l *Layout, h Handle, r float64) []Handle {
	var out []Handle
	l.ForEachInRange(h, r, func(d *Device) { out = append(out, d.Handle) })
	return out
}

func gridAliveIn(l *Layout, c geometry.Circle) []Handle {
	var out []Handle
	l.forEachAlive(c.Center, c.Radius, 0, func(d *Device) { out = append(out, d.Handle) })
	return out
}

func handlesEqual(a, b []Handle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomChurnLayout builds a layout with deployments across rounds,
// replicas of random nodes and random kills — exercising every mutation
// the index must track. withGrid controls whether the
// index exists from the start (so the mutations maintain it
// incrementally) or is never built (brute-force path).
func randomChurnLayout(seed int64, n int, cell float64, withGrid bool) *Layout {
	rng := rand.New(rand.NewSource(seed))
	l := NewLayout(geometry.NewField(100, 100))
	if withGrid {
		l.EnsureGrid(cell)
	}
	randPoint := func() geometry.Point {
		return geometry.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < n/3; i++ {
			l.Deploy(randPoint(), round)
		}
		// Replicate a few random nodes at fresh positions.
		for i := 0; i < n/20; i++ {
			victim := Handle(1 + rng.Intn(l.Count()))
			if d := l.Device(victim); d != nil {
				l.DeployReplica(d.Node, randPoint(), round)
			}
		}
		// Kill some devices (replicas included), some of them twice.
		for i := 0; i < n/10; i++ {
			l.Kill(Handle(1 + rng.Intn(l.Count())))
		}
	}
	return l
}

// TestGridMatchesBruteForce is the differential property test behind the
// bit-identical claim: over random layouts with replicas and kills, every grid query must report exactly the devices the brute-force
// oracle reports, in exactly the same (deployment) order — including at
// boundary radii, sub- and super-cell radii, and radius 0.
func TestGridMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 977))
			// Cell size deliberately varies — correctness must not depend
			// on it matching the query radius.
			cell := []float64{5, 12.5, 25, 60}[int(seed)%4]
			l := randomChurnLayout(seed, 120, cell, true)
			oracle := randomChurnLayout(seed, 120, cell, false)
			if l.idx == nil || oracle.idx != nil {
				t.Fatal("grid/oracle setup inverted")
			}

			radii := []float64{0, 1, 7.3, 12.5, 25, 50, 200}
			// Exact inter-device distances probe the inclusive boundary:
			// a query at that exact radius must include the device.
			a, b := l.Device(1), l.Device(2)
			if a != nil && b != nil {
				radii = append(radii, a.Pos.Dist(b.Pos))
			}
			for _, r := range radii {
				for _, d := range l.devices {
					h := d.Handle
					got := gridInRange(l, h, r)
					want := bruteInRange(oracle, h, r)
					if !handlesEqual(got, want) {
						t.Fatalf("r=%g h=%d: grid %v != brute %v", r, h, got, want)
					}
				}
				for i := 0; i < 10; i++ {
					c := geometry.Circle{
						Center: geometry.Point{X: rng.Float64()*140 - 20, Y: rng.Float64()*140 - 20},
						Radius: r,
					}
					got := gridAliveIn(l, c)
					want := bruteAliveIn(oracle, c)
					if !handlesEqual(got, want) {
						t.Fatalf("circle %+v: grid %v != brute %v", c, got, want)
					}
				}
			}

			// TruthGraph through the grid == TruthGraph via brute force.
			for _, r := range []float64{10, 25, 50} {
				if !l.TruthGraph(r).Equal(oracle.TruthGraph(r)) {
					t.Fatalf("TruthGraph(%g) differs between grid and brute force", r)
				}
			}
		})
	}
}

// TestEnsureGridLateBuildMatchesIncremental checks the two ways an index
// comes to exist — built over an already-mutated layout, or built empty
// and maintained through every mutation — yield identical query results.
func TestEnsureGridLateBuildMatchesIncremental(t *testing.T) {
	incremental := randomChurnLayout(42, 120, 25, true)
	late := randomChurnLayout(42, 120, 25, false)
	late.EnsureGrid(25)
	for _, d := range incremental.devices {
		h := d.Handle
		if got, want := gridInRange(incremental, h, 25), gridInRange(late, h, 25); !handlesEqual(got, want) {
			t.Fatalf("h=%d: incremental %v != late-build %v", h, got, want)
		}
	}
}

func TestEnsureGridRejectsBadCellSizes(t *testing.T) {
	l := newTestLayout()
	for _, cell := range []float64{0, -1} {
		l.EnsureGrid(cell)
		if l.idx != nil {
			t.Fatalf("EnsureGrid(%g) built an index", cell)
		}
	}
	l.EnsureGrid(50)
	if l.idx == nil {
		t.Fatal("EnsureGrid(50) did not build an index")
	}
}

// TestGridQueryAllocatesNothing pins the zero-allocation contract of the
// iterator on the grid path.
func TestGridQueryAllocatesNothing(t *testing.T) {
	l := NewLayout(geometry.NewField(100, 100))
	l.EnsureGrid(25)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		l.Deploy(geometry.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, 0)
	}
	count := 0
	allocs := testing.AllocsPerRun(100, func() {
		l.ForEachInRange(1, 25, func(*Device) { count++ })
	})
	if allocs != 0 {
		t.Errorf("ForEachInRange allocates %.1f per query, want 0", allocs)
	}
	if count == 0 {
		t.Fatal("query matched nothing; test is vacuous")
	}
}

// TestTruthGraphUnchangedByGrid pins that building the graph through the
// index reproduces the exact relation set of a hand-rolled pairwise scan.
func TestTruthGraphUnchangedByGrid(t *testing.T) {
	l := randomChurnLayout(5, 150, 25, true)
	b := topology.NewBuilder()
	for _, d := range l.devices {
		if !d.Alive || d.Replica {
			continue
		}
		b.AddNode(d.Node)
		for _, e := range l.devices {
			if e.Handle == d.Handle || !e.Alive || e.Replica {
				continue
			}
			if d.Pos.InRange(e.Pos, 25) {
				b.AddMutual(d.Node, e.Node)
			}
		}
	}
	if got := l.TruthGraph(25); !got.Equal(b.Finalize()) {
		t.Fatal("TruthGraph over the grid differs from the pairwise scan")
	}
}

// benchQueryLayout deploys n devices at constant density (field side
// grows with √n) so the neighborhood size k stays fixed while n grows —
// the regime where O(n) and O(k) queries diverge.
func benchQueryLayout(n int, withGrid bool) *Layout {
	rng := rand.New(rand.NewSource(1))
	field := 10 * math.Sqrt(float64(n))
	l := NewLayout(geometry.NewField(field, field))
	if withGrid {
		l.EnsureGrid(50)
	}
	for i := 0; i < n; i++ {
		l.Deploy(geometry.Point{X: rng.Float64() * field, Y: rng.Float64() * field}, 0)
	}
	return l
}

func BenchmarkForEachInRangeGrid(b *testing.B) {
	for _, n := range []int{200, 2000, 10000} {
		l := benchQueryLayout(n, true)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := Handle(1 + i%n)
				l.ForEachInRange(h, 50, func(*Device) {})
			}
		})
	}
}

func BenchmarkForEachInRangeBrute(b *testing.B) {
	for _, n := range []int{200, 2000, 10000} {
		l := benchQueryLayout(n, false)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := Handle(1 + i%n)
				l.ForEachInRange(h, 50, func(*Device) {})
			}
		})
	}
}
