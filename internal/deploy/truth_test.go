package deploy

import (
	"math/rand"
	"reflect"
	"testing"

	"snd/internal/geometry"
	"snd/internal/topology"
)

// assertBitIdentical fails unless the two compact graphs have identical
// vertex lists and identical adjacency rows — representation-level
// equality, stronger than set equality.
func assertBitIdentical(t *testing.T, want, got *topology.Graph) {
	t.Helper()
	if !reflect.DeepEqual(want.Nodes(), got.Nodes()) {
		t.Fatalf("vertex lists differ: %d vs %d nodes", want.NumNodes(), got.NumNodes())
	}
	if want.NumRelations() != got.NumRelations() {
		t.Fatalf("relation counts differ: %d vs %d", want.NumRelations(), got.NumRelations())
	}
	for _, u := range want.Nodes() {
		if !reflect.DeepEqual(want.Out(u), got.Out(u)) {
			t.Fatalf("row of %v differs: %v vs %v", u, want.Out(u), got.Out(u))
		}
	}
}

// TestTruthGraphParallelMatchesSerial pins the determinism claim: the
// parallel per-cell build must be bit-identical to the serial order-walk,
// for any worker count, on a layout large enough to actually take the
// parallel path (alive ≥ truthParallelMin) and messy enough to exercise
// replicas and dead devices.
func TestTruthGraphParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := NewLayout(geometry.NewField(600, 600))
	l.DeploySampled(Uniform{}, 2*truthParallelMin, rng, 0)
	// Replicas of some nodes, planted anywhere.
	for i := 0; i < 200; i++ {
		victim := l.Devices()[rng.Intn(l.Count())]
		if victim.Replica {
			continue
		}
		pos := geometry.Point{X: rng.Float64() * 600, Y: rng.Float64() * 600}
		if _, err := l.DeployReplica(victim.Node, pos, 1); err != nil {
			t.Fatal(err)
		}
	}
	l.KillFraction(0.1, rng)

	for _, r := range []float64{12, 35} {
		serial := l.truthGraph(r, 1)
		for _, workers := range []int{2, 3, 8, 64} {
			par := l.truthGraph(r, workers)
			if !par.Equal(serial) {
				t.Fatalf("r=%v workers=%d: parallel build not Equal to serial", r, workers)
			}
			assertBitIdentical(t, serial, par)
		}
		if serial.NumRelations() == 0 {
			t.Fatalf("r=%v: degenerate test, no relations", r)
		}
	}
}

// TestTruthGraphMatchesBruteForce cross-checks the grid-swept builder
// against the O(n²) definition on a small messy layout.
func TestTruthGraphMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLayout(geometry.NewField(200, 200))
	l.DeploySampled(Uniform{}, 300, rng, 0)
	for i := 0; i < 20; i++ {
		victim := l.Devices()[rng.Intn(l.Count())]
		if victim.Replica {
			continue
		}
		pos := geometry.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}
		if _, err := l.DeployReplica(victim.Node, pos, 1); err != nil {
			t.Fatal(err)
		}
	}
	l.KillFraction(0.15, rng)

	const r = 40
	b := topology.NewBuilder()
	devices := l.Devices()
	for _, d := range devices {
		if d.Alive && !d.Replica {
			b.AddNode(d.Node)
		}
	}
	for i, a := range devices {
		if !a.Alive || a.Replica {
			continue
		}
		for _, c := range devices[i+1:] {
			if !c.Alive || c.Replica {
				continue
			}
			if a.Pos.Dist(c.Pos) <= r {
				b.AddMutual(a.Node, c.Node)
			}
		}
	}
	want := b.Finalize()
	got := l.TruthGraph(r)
	if !got.Equal(want) {
		t.Fatalf("truth graph differs from O(n²) definition: %d/%d vs %d/%d",
			got.NumNodes(), got.NumRelations(), want.NumNodes(), want.NumRelations())
	}
}

// TestTruthGraphPooledRebuildsStable: repeated TruthGraph calls recycle
// pooled builders and buffers; later calls must reproduce the same graph
// and earlier results must stay valid (no storage sharing with the pool).
func TestTruthGraphPooledRebuildsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLayout(geometry.NewField(300, 300))
	l.DeploySampled(Uniform{}, 500, rng, 0)
	first := l.TruthGraph(30)
	edges := first.NumRelations()
	for i := 0; i < 5; i++ {
		g := l.TruthGraph(30)
		if !g.Equal(first) {
			t.Fatalf("rebuild %d differs", i)
		}
	}
	if first.NumRelations() != edges {
		t.Fatal("earlier graph mutated by pooled rebuilds")
	}
}

// TestTruthGraphMillionSmoke builds and validates against a million-node
// truth graph end to end — the scale target of the compact representation.
// It is a smoke test: skipped in -short runs and under the race detector
// (where the 10⁶-device build is an order of magnitude slower).
func TestTruthGraphMillionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node smoke test skipped in short mode")
	}
	if raceEnabled {
		t.Skip("million-node smoke test skipped under the race detector")
	}
	const (
		n = 1_000_000
		r = 10 // ~π neighbors at density 1/100 m²
	)
	rng := rand.New(rand.NewSource(1))
	l := NewLayout(geometry.NewField(10000, 10000))
	l.DeploySampled(Uniform{}, n, rng, 0)
	g := l.TruthGraph(r)
	if g.NumNodes() != n {
		t.Fatalf("nodes = %d, want %d", g.NumNodes(), n)
	}
	if g.NumRelations() == 0 {
		t.Fatal("no relations at R=10")
	}
	// The truth graph is symmetric by construction; spot-check a sample.
	for _, u := range g.Nodes()[:1000] {
		for _, v := range g.Out(u) {
			if !g.HasRelation(v, u) {
				t.Fatalf("asymmetric relation %v->%v", u, v)
			}
		}
	}
	// Run the validation sweep the accuracy metric performs, at full scale.
	sampled := 0
	for _, u := range g.Nodes()[:10000] {
		for _, v := range g.Out(u) {
			sampled += g.CommonOut(u, v)
		}
	}
	_ = sampled
}
