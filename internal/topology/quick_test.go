package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"snd/internal/nodeid"
)

// graphFromOps builds a graph from a random add/mutual script.
func graphFromOps(seed int64, ops int) *Graph {
	_, g := scriptFromOps(rand.New(rand.NewSource(seed)), ops, 20)
	return g
}

// TestQuickRelabelPreservesStructure: a relabeled graph has the same
// shape, and relabeling back restores the original.
func TestQuickRelabelPreservesStructure(t *testing.T) {
	from := make([]nodeid.ID, 20)
	to := make([]nodeid.ID, 20)
	for i := range from {
		from[i] = nodeid.ID(i + 1)
		to[i] = nodeid.ID(i + 101)
	}
	iso, err := nodeid.NewIsomorphism(from, to)
	if err != nil {
		t.Fatal(err)
	}
	inv := iso.Inverse()
	f := func(seed int64) bool {
		g := graphFromOps(seed, 150)
		r := g.Relabel(iso)
		if r.NumNodes() != g.NumNodes() || r.NumRelations() != g.NumRelations() {
			return false
		}
		return r.Relabel(inv).Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickPartitionsCoverExactly: partitions form a disjoint cover of the
// vertex set.
func TestQuickPartitionsCoverExactly(t *testing.T) {
	f := func(seed int64) bool {
		g := graphFromOps(seed, 120)
		seen := make(map[nodeid.ID]bool)
		total := 0
		for _, p := range g.Partitions() {
			total += p.Size()
			for _, id := range p.Members {
				if seen[id] {
					return false // overlap
				}
				seen[id] = true
			}
		}
		return total == g.NumNodes() && len(seen) == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSubgraphIdempotent: inducing on the full vertex set is the
// identity, and inducing twice equals inducing once.
func TestQuickSubgraphIdempotent(t *testing.T) {
	f := func(seed int64, keepMask uint32) bool {
		g := graphFromOps(seed, 120)
		if !g.Subgraph(g.Nodes()).Equal(g) {
			return false
		}
		var keep nodeid.Set
		for i := 0; i < 20; i++ {
			if keepMask&(1<<i) != 0 {
				keep = append(keep, nodeid.ID(i+1))
			}
		}
		once := g.Subgraph(keep)
		return once.Subgraph(keep).Equal(once)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickCommonOutSymmetricOnMutualGraphs: on graphs built only with
// AddMutual, |N(u) ∩ N(v)| is symmetric.
func TestQuickCommonOutSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := build(func(b *Builder) {
			for i := 0; i < 100; i++ {
				b.AddMutual(nodeid.ID(rng.Intn(15)+1), nodeid.ID(rng.Intn(15)+1))
			}
		})
		for a := nodeid.ID(1); a <= 15; a++ {
			for b := a + 1; b <= 15; b++ {
				if g.CommonOut(a, b) != g.CommonOut(b, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickEgoNetworkMonotone: larger hop radii never shrink the ego set,
// and the whole component is reached at radius ≥ its size.
func TestQuickEgoNetworkMonotone(t *testing.T) {
	f := func(seed int64) bool {
		g := graphFromOps(seed, 100)
		nodes := g.Nodes()
		if len(nodes) == 0 {
			return true
		}
		u := nodes[0]
		prev := -1
		for hops := 0; hops <= 4; hops++ {
			n := g.EgoNetwork(u, hops).NumNodes()
			if n < prev {
				return false
			}
			prev = n
		}
		// Radius = graph size reaches the full weak component of u.
		full := g.EgoNetwork(u, g.NumNodes())
		for _, p := range g.Partitions() {
			if p.Members.Contains(u) {
				return full.NumNodes() == p.Size()
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
