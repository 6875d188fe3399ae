package adversary

import (
	"slices"
	"testing"

	"snd/internal/core"
	"snd/internal/crypto"
	"snd/internal/nodeid"
	"snd/internal/topology"
)

// operationalNode builds a node that has completed discovery with the
// given tentative set (records unauthenticated peers skipped — here we
// drive a lone node through an empty validation pass).
func operationalNode(t *testing.T, id nodeid.ID) *core.Node {
	t.Helper()
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNode(id, master, core.Config{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BeginDiscovery(nodeid.NewSet(2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.FinishDiscovery(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCaptureAfterErasureYieldsNoKey(t *testing.T) {
	a := New(1)
	n := operationalNode(t, 1)
	if got := a.Capture(n); got {
		t.Error("capture after erasure reported a live master key")
	}
	if !a.Has(1) || !a.Compromised().Contains(1) {
		t.Error("capture not recorded")
	}
	n1, err := a.ReplicaState(1)
	if err != nil {
		t.Fatal(err)
	}
	if rec := n1.Record(); !slices.Equal(rec.Neighbors, nodeid.NewSet(2, 3)) {
		t.Errorf("captured record neighbors = %v", rec.Neighbors)
	}
}

func TestCaptureDuringDiscoveryStealsKey(t *testing.T) {
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNode(1, master, core.Config{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BeginDiscovery(nodeid.NewSet(2)); err != nil {
		t.Fatal(err)
	}
	a := New(1)
	if got := a.Capture(n); !got {
		t.Error("capture during discovery window did not yield the key")
	}
}

func TestReplicaStateIndependentCopies(t *testing.T) {
	a := New(1)
	a.Capture(operationalNode(t, 1))
	r1, err := a.ReplicaState(1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.ReplicaState(1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Error("replica states share memory")
	}
	if r1.ID() != 1 || r2.ID() != 1 {
		t.Error("replica claims wrong identity")
	}
	if _, err := a.ReplicaState(42); err == nil {
		t.Error("replica of uncompromised node granted")
	}
}

// ringBuilder records a tentative topology where target (id 1) has the
// given number of mutual neighbors 2..n+1, all also mutually connected to
// each other (a local clique).
func ringBuilder(neighbors int) *topology.Builder {
	b := topology.NewBuilder()
	ids := make([]nodeid.ID, neighbors+1)
	for i := range ids {
		ids[i] = nodeid.ID(i + 1)
	}
	for i, a := range ids {
		for _, c := range ids[i+1:] {
			b.AddMutual(a, c)
		}
	}
	return b
}

// ringGraph finalizes ringBuilder's topology.
func ringGraph(neighbors int) *topology.Graph { return ringBuilder(neighbors).Finalize() }

func TestForgeSubstitutionDefeatsTopologyRule(t *testing.T) {
	// The attacker compromises node 100 (somewhere far away) and wants the
	// benign node 1 to validate it under CommonNeighborRule{t=3}.
	const threshold = 3
	b := ringBuilder(6) // node 1 with 6 tentative neighbors
	b.AddNode(100)
	g := b.Finalize()

	a := New(1)
	a.Capture(operationalNode(t, 100))

	rule := topology.CommonNeighborRule{Threshold: threshold}
	if rule.Validate(1, 100, g) {
		t.Fatal("rule validated before the attack")
	}
	forged, err := a.ForgeSubstitution(g, rule, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The attack forges exactly 2 + (t+1) relations.
	if len(forged) != 2+threshold+1 {
		t.Errorf("forged %d relations, want %d", len(forged), 2+threshold+1)
	}
	// Every forged relation involves the compromised node — the attacker
	// cannot forge relations between two benign nodes.
	for _, p := range forged {
		if p.From != 100 && p.To != 100 {
			t.Errorf("forged relation %v does not involve the compromised node", p)
		}
	}
	attacked := InjectRelations(g, forged)
	if !rule.Validate(1, 100, attacked) {
		t.Error("substitution attack failed against topology-only rule")
	}
	if g.HasRelation(1, 100) || attacked.NumRelations() != g.NumRelations()+len(forged) {
		t.Error("InjectRelations edited its input or lost relations")
	}
}

func TestForgeSubstitutionRequiresCompromise(t *testing.T) {
	g := ringGraph(6)
	a := New(1)
	if _, err := a.ForgeSubstitution(g, topology.CommonNeighborRule{Threshold: 1}, 1, 100); err == nil {
		t.Error("forged relations for an uncompromised node")
	}
}

func TestForgeSubstitutionNeedsDenseTarget(t *testing.T) {
	// Target with 2 neighbors cannot support a threshold-3 forgery.
	g := ringGraph(2)
	a := New(1)
	a.Capture(operationalNode(t, 100))
	if _, err := a.ForgeSubstitution(g, topology.CommonNeighborRule{Threshold: 3}, 1, 100); err == nil {
		t.Error("forgery built without enough target neighbors")
	}
}

func TestTwinConstructionProvesTheorem1(t *testing.T) {
	// Reproduce the proof of Theorem 1 end to end for t = 3 (m = 6).
	rule := topology.CommonNeighborRule{Threshold: 3}
	aIDs := []nodeid.ID{1, 2, 3, 4, 5, 6}
	bIDs := []nodeid.ID{11, 12, 13, 14, 15}
	tc, err := BuildTwinConstruction(rule, aIDs, bIDs)
	if err != nil {
		t.Fatal(err)
	}
	// n = 2m − 1, the theorem's bound.
	if got, want := tc.G.NumNodes(), 2*rule.MinimumDeploymentSize()-1; got != want {
		t.Fatalf("nodes = %d, want %d", got, want)
	}
	// Before the attack: u validates w inside G_A, but f(u) does not.
	if !rule.Validate(tc.U, tc.W, tc.G) {
		t.Fatal("F(u, w, G_A) = 0; minimum deployment broken")
	}
	if rule.Validate(tc.FU, tc.W, tc.G) {
		t.Fatal("f(u) validates w before the forgery")
	}
	// Every forged relation involves only the compromised node w.
	for _, p := range tc.Forged {
		if p.From != tc.W && p.To != tc.W {
			t.Fatalf("forged relation %v does not involve w", p)
		}
	}
	// After injecting G(w): f(u) validates w too. Both fooled nodes live
	// in disconnected components that can be placed arbitrarily far apart,
	// so no d-safety bound can hold for any d.
	attacked := InjectRelations(tc.G, tc.Forged)
	if !rule.Validate(tc.FU, tc.W, attacked) {
		t.Fatal("Theorem 1 construction failed: f(u) rejects w after forgery")
	}
	if !rule.Validate(tc.U, tc.W, attacked) {
		t.Fatal("u no longer validates w")
	}
}

func TestTwinConstructionValidation(t *testing.T) {
	rule := topology.CommonNeighborRule{Threshold: 2}
	good := []nodeid.ID{1, 2, 3, 4, 5}
	if _, err := BuildTwinConstruction(rule, good[:4], []nodeid.ID{11, 12, 13, 14}); err == nil {
		t.Error("wrong |A| accepted")
	}
	if _, err := BuildTwinConstruction(rule, good, []nodeid.ID{11, 12}); err == nil {
		t.Error("wrong |B| accepted")
	}
	if _, err := BuildTwinConstruction(rule, good, []nodeid.ID{1, 11, 12, 13}); err == nil {
		t.Error("overlapping pools accepted")
	}
}

func TestFindCoLocatedClique(t *testing.T) {
	// Clique {1..5} plus sparse chain 6-7-8.
	b := ringBuilder(4) // 1..5 fully mutual
	b.AddMutual(6, 7)
	b.AddMutual(7, 8)
	g := b.Finalize()

	clique := FindCoLocatedClique(g, 4)
	if len(clique) != 4 {
		t.Fatalf("clique size = %d, want 4", len(clique))
	}
	for i, a := range clique {
		for _, b := range clique[i+1:] {
			if !g.HasMutual(a, b) {
				t.Fatalf("returned nodes %v and %v not mutual", a, b)
			}
		}
	}
	// Asking for more than exists returns the largest found.
	big := FindCoLocatedClique(g, 10)
	if len(big) != 5 {
		t.Errorf("largest clique = %d, want 5", len(big))
	}
	// Empty graph.
	if got := FindCoLocatedClique(topology.NewBuilder().Finalize(), 3); got != nil {
		t.Errorf("clique in empty graph = %v", got)
	}
}
