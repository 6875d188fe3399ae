package cluster

import (
	"math/rand"
	"testing"

	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/topology"
	"snd/internal/verify"
)

// pathBuilder records the mutual path 1 - 2 - ... - n.
func pathBuilder(n int) *topology.Builder {
	b := topology.NewBuilder()
	for i := 1; i < n; i++ {
		b.AddMutual(nodeid.ID(i), nodeid.ID(i+1))
	}
	return b
}

// pathGraph builds the mutual path 1 - 2 - ... - n.
func pathGraph(n int) *topology.Graph { return pathBuilder(n).Finalize() }

func TestLowestID(t *testing.T) {
	// Clique {3,5,7}: everyone elects 3. Isolated node 9 elects itself.
	b := topology.NewBuilder()
	b.AddMutual(3, 5)
	b.AddMutual(3, 7)
	b.AddMutual(5, 7)
	b.AddNode(9)
	a := LowestID(b.Finalize())
	for _, n := range []nodeid.ID{3, 5, 7} {
		if a[n] != 3 {
			t.Errorf("node %v elected %v, want 3", n, a[n])
		}
	}
	if a[9] != 9 {
		t.Errorf("isolated node elected %v", a[9])
	}
	heads := a.Heads()
	if len(heads) != 2 || heads[0] != 3 || heads[1] != 9 {
		t.Errorf("heads = %v", heads)
	}
	members := 0
	for _, h := range a {
		if h == 3 {
			members++
		}
	}
	if members != 3 {
		t.Errorf("head 3 has %d members, want 3", members)
	}
}

func TestMaxMinDValidation(t *testing.T) {
	if _, err := MaxMinD(pathGraph(3), 0); err == nil {
		t.Error("d = 0 accepted")
	}
}

func TestMaxMinDSingleton(t *testing.T) {
	b := topology.NewBuilder()
	b.AddNode(5)
	a, err := MaxMinD(b.Finalize(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a[5] != 5 {
		t.Errorf("lone node elected %v", a[5])
	}
}

func TestMaxMinDClique(t *testing.T) {
	// In a clique, floodmax converges to the max ID for everyone and the
	// max ID sees itself in floodmin: one cluster headed by the max.
	b := topology.NewBuilder()
	ids := []nodeid.ID{2, 4, 6, 8}
	for i, a := range ids {
		for _, c := range ids[i+1:] {
			b.AddMutual(a, c)
		}
	}
	a, err := MaxMinD(b.Finalize(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ids {
		if a[n] != 8 {
			t.Errorf("node %v elected %v, want 8", n, a[n])
		}
	}
}

func TestMaxMinDHeadsWithinDHops(t *testing.T) {
	// The algorithm's service guarantee: every node's head is at most d
	// hops away (in a connected graph).
	rng := rand.New(rand.NewSource(7))
	l := deploy.NewLayout(geometry.NewField(100, 100))
	l.DeploySampled(deploy.Uniform{}, 150, rng, 0)
	g := verify.TentativeGraph(l, verify.Oracle{}, 30)
	for _, d := range []int{1, 2, 3} {
		a, err := MaxMinD(g, d)
		if err != nil {
			t.Fatal(err)
		}
		over := 0
		for n, head := range a {
			// Only check within connected components.
			if hopDistance(g, n, head, d+1) > d {
				over++
				if over < 4 {
					t.Logf("d=%d: node %v head %v beyond %d hops", d, n, head, d)
				}
			}
		}
		if over > 0 {
			t.Errorf("d=%d: %d nodes elected heads beyond d hops", d, over)
		}
		// Larger d yields (weakly) fewer clusters.
		if d == 3 {
			a1, err := MaxMinD(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Heads()) > len(a1.Heads()) {
				t.Errorf("d=3 produced more heads (%d) than d=1 (%d)", len(a.Heads()), len(a1.Heads()))
			}
		}
	}
}

func TestMaxMinDPath(t *testing.T) {
	// A path of 7 with d=3: the max ID (7) dominates its 3-hop ball; far
	// nodes regroup under smaller heads. Every node's head is within 3
	// hops and rule 1 makes node 7 a head.
	g := pathGraph(7)
	a, err := MaxMinD(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a[7] != 7 {
		t.Errorf("max node elected %v", a[7])
	}
	for n, head := range a {
		if d := hopDistance(g, n, head, 7); d > 3 {
			t.Errorf("node %v head %v at %d hops", n, head, d)
		}
	}
}

func TestDiameter2Cost(t *testing.T) {
	g := pathGraph(5)
	// Assign everyone to head 1: node 5 is 4 hops away.
	a := make(Assignment)
	for _, n := range g.Nodes() {
		a[n] = 1
	}
	if got := Diameter2Cost(g, a, 10); got != 4 {
		t.Errorf("cost = %d, want 4", got)
	}
	// Unreachable head costs the cap.
	b := pathBuilder(5)
	b.AddNode(99)
	g = b.Finalize()
	a[99] = 1
	if got := Diameter2Cost(g, a, 10); got != 10 {
		t.Errorf("unreachable cost = %d, want 10", got)
	}
}

func TestClusteringOverAttackedTopology(t *testing.T) {
	// The paper's motivating failure: a low-ID replica wins elections
	// across the field in the tentative topology. Confirm the effect and
	// its absence over a ground-truth graph.
	l := deploy.NewLayout(geometry.NewField(100, 100))
	rng := rand.New(rand.NewSource(9))
	l.DeploySampled(deploy.Uniform{}, 200, rng, 0)
	victim := nodeid.ID(1)
	for _, pos := range []geometry.Point{{X: 10, Y: 90}, {X: 90, Y: 10}, {X: 90, Y: 90}} {
		if _, err := l.DeployReplica(victim, pos, 1); err != nil {
			t.Fatal(err)
		}
	}
	polluted := verify.TentativeGraph(l, verify.Oracle{}, 25)
	clean := l.TruthGraph(25)

	pollutedVotes := 0
	for _, h := range LowestID(polluted) {
		if h == victim {
			pollutedVotes++
		}
	}
	cleanVotes := 0
	for _, h := range LowestID(clean) {
		if h == victim {
			cleanVotes++
		}
	}
	if pollutedVotes <= cleanVotes {
		t.Errorf("replicas did not inflate elections: %d vs %d", pollutedVotes, cleanVotes)
	}
}

func BenchmarkMaxMinD(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	l := deploy.NewLayout(geometry.NewField(100, 100))
	l.DeploySampled(deploy.Uniform{}, 200, rng, 0)
	g := verify.TentativeGraph(l, verify.Oracle{}, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxMinD(g, 2); err != nil {
			b.Fatal(err)
		}
	}
}
