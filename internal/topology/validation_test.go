package topology

import (
	"math/rand"
	"testing"

	"snd/internal/nodeid"
)

// build finalizes the graph that fill records into a fresh Builder.
func build(fill func(b *Builder)) *Graph {
	b := NewBuilder()
	fill(b)
	return b.Finalize()
}

// addClique records a mutual clique over ids.
func addClique(b *Builder, ids ...nodeid.ID) {
	for i, a := range ids {
		for _, c := range ids[i+1:] {
			b.AddMutual(a, c)
		}
	}
}

// cliqueWith builds a mutual clique over ids.
func cliqueWith(ids ...nodeid.ID) *Graph {
	return build(func(b *Builder) { addClique(b, ids...) })
}

func TestAcceptAll(t *testing.T) {
	g := build(func(b *Builder) { b.AddRelation(1, 2) })
	f := AcceptAll{}
	if !f.Validate(1, 2, g) {
		t.Error("asserted relation rejected")
	}
	if f.Validate(2, 1, g) {
		t.Error("unasserted relation accepted")
	}
	if f.MinimumDeploymentSize() != 2 {
		t.Errorf("min deployment = %d", f.MinimumDeploymentSize())
	}
}

func TestCommonNeighborRule(t *testing.T) {
	// 1 and 2 mutually related, sharing common neighbors 3, 4, 5.
	g := cliqueWith(1, 2, 3, 4, 5)
	tests := []struct {
		threshold int
		want      bool
	}{
		{0, true},  // need ≥1 common, have 3
		{2, true},  // need ≥3 common, have 3
		{3, false}, // need ≥4 common, have 3
	}
	for _, tt := range tests {
		f := CommonNeighborRule{Threshold: tt.threshold}
		if got := f.Validate(1, 2, g); got != tt.want {
			t.Errorf("t=%d: Validate = %v, want %v", tt.threshold, got, tt.want)
		}
	}
}

func TestCommonNeighborRuleRequiresMutual(t *testing.T) {
	// A clique over {1..4} missing only the relation (2, 1).
	g := build(func(b *Builder) {
		addClique(b, 1, 3, 4)
		b.AddRelation(1, 2)
		b.AddMutual(2, 3)
		b.AddMutual(2, 4)
	})
	f := CommonNeighborRule{Threshold: 0}
	if f.Validate(1, 2, g) {
		t.Error("validated without mutual assertion")
	}
}

func TestCommonNeighborRuleMinimumDeployment(t *testing.T) {
	// |G_min| = t+3 (Section 4.4): verify constructively — a clique of t+3
	// nodes validates, one of t+2 does not.
	const threshold = 4
	f := CommonNeighborRule{Threshold: threshold}
	if got := f.MinimumDeploymentSize(); got != threshold+3 {
		t.Fatalf("MinimumDeploymentSize = %d", got)
	}
	ids := make([]nodeid.ID, threshold+3)
	for i := range ids {
		ids[i] = nodeid.ID(i + 1)
	}
	if !f.Validate(ids[0], ids[1], cliqueWith(ids...)) {
		t.Error("clique of t+3 does not validate")
	}
	if f.Validate(ids[0], ids[1], cliqueWith(ids[:threshold+2]...)) {
		t.Error("clique of t+2 validates")
	}
}

func TestIsomorphismInvariance(t *testing.T) {
	// Definition 3's invariance, on a random graph and random relabeling.
	rng := rand.New(rand.NewSource(21))
	g := build(func(b *Builder) {
		for i := 0; i < 200; i++ {
			b.AddMutual(nodeid.ID(rng.Intn(25)+1), nodeid.ID(rng.Intn(25)+1))
		}
	})
	from := make([]nodeid.ID, 25)
	to := make([]nodeid.ID, 25)
	for i := range from {
		from[i] = nodeid.ID(i + 1)
		to[i] = nodeid.ID(i + 101)
	}
	rng.Shuffle(len(to), func(i, j int) { to[i], to[j] = to[j], to[i] })
	iso, err := nodeid.NewIsomorphism(from, to)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []ValidationFunc{AcceptAll{}, CommonNeighborRule{Threshold: 2}} {
		if !CheckIsomorphismInvariance(f, g, iso) {
			t.Errorf("%s violates isomorphism invariance", f.Name())
		}
	}
}

func TestFunctionalTopology(t *testing.T) {
	// Clique {1..5} plus a pendant 6-7 pair with no common neighbors.
	g := build(func(b *Builder) {
		addClique(b, 1, 2, 3, 4, 5)
		b.AddMutual(6, 7)
	})
	f := CommonNeighborRule{Threshold: 1}
	ft := FunctionalTopology(g, f, 1)
	if !ft.HasMutual(1, 2) {
		t.Error("clique relation not functional")
	}
	if ft.HasRelation(6, 7) {
		t.Error("pendant pair validated without common neighbors")
	}
	// All vertices carried over.
	if ft.NumNodes() != g.NumNodes() {
		t.Errorf("nodes = %d, want %d", ft.NumNodes(), g.NumNodes())
	}
}

func TestFunctionalTopologyLocalView(t *testing.T) {
	// With a 1-hop ego view, a node still sees the relations needed for the
	// common-neighbor count: common neighbors are in the ego net.
	g := cliqueWith(1, 2, 3)
	ft := FunctionalTopology(g, CommonNeighborRule{Threshold: 0}, 1)
	if !ft.HasMutual(1, 2) {
		t.Error("validation failed under 1-hop local view")
	}
}

func TestAccuracy(t *testing.T) {
	truth := cliqueWith(1, 2, 3)
	if got := Accuracy(cliqueWith(1, 2, 3), truth); got != 1 {
		t.Errorf("full accuracy = %v", got)
	}
	// Drop (1, 2) and (2, 1): 4 of 6 directed relations remain.
	functional := build(func(b *Builder) {
		b.AddMutual(1, 3)
		b.AddMutual(2, 3)
	})
	if got := Accuracy(functional, truth); got != 4.0/6.0 {
		t.Errorf("accuracy = %v, want %v", got, 4.0/6.0)
	}
	if got := Accuracy(functional, NewBuilder().Finalize()); got != 1 {
		t.Errorf("empty truth accuracy = %v, want 1", got)
	}
	// Extra (false) relations do not inflate accuracy.
	functional = build(func(b *Builder) {
		b.AddMutual(1, 3)
		b.AddMutual(2, 3)
		b.AddMutual(8, 9)
	})
	if got := Accuracy(functional, truth); got != 4.0/6.0 {
		t.Errorf("accuracy with extras = %v", got)
	}
}

func BenchmarkFunctionalTopology(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := build(func(b *Builder) {
		for i := 0; i < 1500; i++ {
			b.AddMutual(nodeid.ID(rng.Intn(100)+1), nodeid.ID(rng.Intn(100)+1))
		}
	})
	f := CommonNeighborRule{Threshold: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FunctionalTopology(g, f, 1)
	}
}
