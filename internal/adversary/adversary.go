// Package adversary implements the paper's attacker model (Section 2): an
// adversary who eavesdrops, forges and replays traffic, compromises a few
// sensor nodes after their deployment-time trust window, replicates them at
// arbitrary places, and jams regions of the field. It also provides the
// concrete attack constructions the paper's theory predicts:
//
//   - the Theorem 2 substitution attack, which defeats ANY localized
//     topology-only validation function by forging tentative relations
//     around a compromised node;
//   - the clone-clique attack, which defeats the paper's own protocol once
//     the attacker compromises MORE than t co-located nodes — showing the
//     threshold guarantee is tight;
//   - the grace-violation attack, which captures the master key K from a
//     node still inside its discovery window.
package adversary

import (
	"fmt"
	"math/rand"

	"snd/internal/core"
	"snd/internal/nodeid"
	"snd/internal/topology"
)

// Attacker tracks the state the adversary has extracted from compromised
// nodes.
type Attacker struct {
	rng      *rand.Rand
	captured map[nodeid.ID]*core.Node
}

// New returns an attacker with a deterministic decision source.
func New(seed int64) *Attacker {
	return &Attacker{
		rng:      rand.New(rand.NewSource(seed)),
		captured: make(map[nodeid.ID]*core.Node),
	}
}

// Capture compromises a node, copying its entire protocol state — binding
// record, verification key, functional list, evidences. If the node has
// already erased K (the paper's deployment assumption), the attacker gets
// no master key; Capture reports whether a live K was obtained.
func (a *Attacker) Capture(n *core.Node) (gotMasterKey bool) {
	clone := n.Clone()
	a.captured[clone.ID()] = clone
	return clone.HoldsMasterKey()
}

// MarkCompromised records the compromise of a node by identity alone, for
// graph-level attack modeling (e.g. the Theorem 2 substitution, which only
// needs the right to forge relations regarding the node). No protocol
// state is captured, so ReplicaState still fails for it.
func (a *Attacker) MarkCompromised(id nodeid.ID) {
	if _, ok := a.captured[id]; !ok {
		a.captured[id] = nil
	}
}

// Compromised returns the set of captured node IDs.
func (a *Attacker) Compromised() nodeid.Set {
	ids := make([]nodeid.ID, 0, len(a.captured))
	for id := range a.captured {
		ids = append(ids, id)
	}
	return nodeid.NewSet(ids...)
}

// Has reports whether node id has been compromised.
func (a *Attacker) Has(id nodeid.ID) bool {
	_, ok := a.captured[id]
	return ok
}

// ReplicaState returns a fresh copy of the captured state for planting a
// replica device of node id. Each replica runs its own copy, as each
// physical clone carries its own flash image.
func (a *Attacker) ReplicaState(id nodeid.ID) (*core.Node, error) {
	n, ok := a.captured[id]
	if !ok || n == nil {
		return nil, fmt.Errorf("adversary: no state captured for node %v", id)
	}
	return n.Clone(), nil
}

// ForgeSubstitution mounts the Theorem 2 attack against a topology-only
// common-neighbor rule: it returns the forged tentative relations that,
// injected into the topology, make the benign target validate the
// compromised node.
//
// The construction instantiates the theorem's R(u,x,G) with x ↦ v: the
// attacker (who can forge any tentative relation regarding a node it
// compromised) asserts mutual relations between target and v plus
// relations from v to t+1 of the target's existing tentative neighbors.
// After injection, |N(target) ∩ N(v)| ≥ t+1 and the rule accepts v — no
// matter how far v's real location is.
func (a *Attacker) ForgeSubstitution(g *topology.Graph, rule topology.CommonNeighborRule, target, v nodeid.ID) ([]nodeid.Pair, error) {
	if !a.Has(v) {
		return nil, fmt.Errorf("adversary: substitution needs a compromised node, %v is not", v)
	}
	need := rule.Threshold + 1
	have := len(g.Out(target))
	if g.HasRelation(target, v) {
		have--
	}
	if have < need {
		return nil, fmt.Errorf("adversary: target %v has %d tentative neighbors, need %d",
			target, have, need)
	}
	forged := []nodeid.Pair{
		{From: target, To: v},
		{From: v, To: target},
	}
	for _, w := range g.Out(target) {
		if len(forged) == 2+need {
			break
		}
		if w != v {
			forged = append(forged, nodeid.Pair{From: v, To: w})
		}
	}
	return forged, nil
}

// TwinConstruction is Theorem 1's constructive counterexample for the
// common-neighbor rule, parameterized by disjoint ID pools A and B with
// |A| = m = t+3 (the rule's minimum deployment) and |B| = m−1.
//
// Following the proof: build G_A isomorphic to G_min(F) — a clique over A —
// in which F(u, w, G_A) = 1 for two members u, w. Build G_B by relabeling
// G_A \ {w} onto B via the isomorphism f. The two components are placed
// arbitrarily far apart. The attacker then compromises w and forges
//
//	G(w) = {(w, f(x)) : (w, x) ∈ G_A} ∪ {(f(x), w) : (x, w) ∈ G_A}
//
// so that G_B ∪ G(w) is exactly the relabeled G_A. By isomorphism
// invariance (Definition 3), f(u) validates w just as u did — two benign
// nodes arbitrarily far apart both hold functional relations with the same
// compromised node, so no d-safety bound holds. The total node count is
// 2m−1, matching the theorem's n ≥ 2m−1 condition.
type TwinConstruction struct {
	// G is G_A ∪ G_B before the attack.
	G *topology.Graph
	// U is the fooled node in G_A; FU its isomorphic twin f(u) in G_B.
	U, FU nodeid.ID
	// W is the node the attacker compromises.
	W nodeid.ID
	// Forged is G(w), the relations the attacker injects.
	Forged []nodeid.Pair
}

// BuildTwinConstruction instantiates Theorem 1's proof for the given rule.
// aIDs must have exactly rule.Threshold+3 distinct IDs and bIDs exactly
// one fewer, disjoint from aIDs.
func BuildTwinConstruction(rule topology.CommonNeighborRule, aIDs, bIDs []nodeid.ID) (*TwinConstruction, error) {
	m := rule.MinimumDeploymentSize()
	if len(aIDs) != m {
		return nil, fmt.Errorf("adversary: |A| = %d, need m = %d", len(aIDs), m)
	}
	if len(bIDs) != m-1 {
		return nil, fmt.Errorf("adversary: |B| = %d, need m-1 = %d", len(bIDs), m-1)
	}
	if nodeid.NewSet(aIDs...).IntersectLen(nodeid.NewSet(bIDs...)) > 0 {
		return nil, fmt.Errorf("adversary: ID pools A and B must be disjoint")
	}
	// u and w are the first two of A; f maps A\{w} onto B.
	u, w := aIDs[0], aIDs[1]
	domain := make([]nodeid.ID, 0, m-1)
	for _, id := range aIDs {
		if id != w {
			domain = append(domain, id)
		}
	}
	f, err := nodeid.NewIsomorphism(domain, bIDs)
	if err != nil {
		return nil, fmt.Errorf("adversary: twin isomorphism: %w", err)
	}

	b := topology.NewBuilder()
	// G_A: clique over A (the rule's minimum deployment contains a
	// functional relation between every pair, in particular (u, w)).
	for i, a := range aIDs {
		for _, c := range aIDs[i+1:] {
			b.AddMutual(a, c)
		}
	}
	// G_B: the relabeled copy of G_A minus w — a clique over B.
	for i, a := range bIDs {
		for _, c := range bIDs[i+1:] {
			b.AddMutual(a, c)
		}
	}
	g := b.Finalize()
	// G(w): the proof's forged relation set.
	tc := &TwinConstruction{G: g, U: u, FU: f.Apply(u), W: w}
	for _, x := range domain {
		if g.HasRelation(w, x) {
			tc.Forged = append(tc.Forged, nodeid.Pair{From: w, To: f.Apply(x)})
		}
		if g.HasRelation(x, w) {
			tc.Forged = append(tc.Forged, nodeid.Pair{From: f.Apply(x), To: w})
		}
	}
	return tc, nil
}

// InjectRelations returns the tentative topology g plus the forged
// relations, modeling the attacker's ability to insert them (via replica
// presence or by defeating direct verification for relations regarding
// compromised nodes). g itself is left as it was.
func InjectRelations(g *topology.Graph, forged []nodeid.Pair) *topology.Graph {
	b := topology.NewBuilder()
	b.Grow(g.NumNodes(), g.NumRelations()+len(forged))
	for _, u := range g.Nodes() {
		b.AddNode(u)
		for _, v := range g.Out(u) {
			b.AddRelation(u, v)
		}
	}
	b.AddPairs(forged)
	return b.Finalize()
}

// FindCoLocatedClique returns up to k node IDs that are pairwise tentative
// neighbors in g — a physically co-located group whose binding records all
// contain each other. This is the raw material of the clone-clique attack:
// replicating such a group of size ≥ t+2 at a remote site gives every
// member ≥ t+1 common neighbors with any fresh node there.
//
// The search is greedy: grow a clique inside the neighborhood of each seed
// in descending-degree order and return the first clique of size k, or the
// largest found.
func FindCoLocatedClique(g *topology.Graph, k int) []nodeid.ID {
	nodes := g.Nodes()
	// Order seeds by degree, densest first.
	ordered := make([]nodeid.ID, len(nodes))
	copy(ordered, nodes)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && len(g.Out(ordered[j])) > len(g.Out(ordered[j-1])); j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	var best []nodeid.ID
	for _, seed := range ordered {
		clique := []nodeid.ID{seed}
		for _, cand := range g.Out(seed) {
			ok := true
			for _, member := range clique {
				if !g.HasMutual(cand, member) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, cand)
				if len(clique) == k {
					return clique
				}
			}
		}
		if len(clique) > len(best) {
			best = clique
		}
	}
	return best
}
