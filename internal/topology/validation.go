package topology

import (
	"snd/internal/nodeid"
)

// ValidationFunc models Definition 3: a neighbor validation function
// F(u, v, B) that decides from a subgraph B of the tentative topology
// whether u should accept v as a functional neighbor. Implementations must
// be invariant under ID isomorphism — a property tests enforce with
// CheckIsomorphismInvariance.
//
// B is a *Graph: the localized ego networks of FunctionalTopology and the
// full-topology sweeps at n=10⁵–10⁶ alike, where CommonOut is a sorted
// merge over CSR rows.
type ValidationFunc interface {
	// Name identifies the function in experiment output.
	Name() string
	// Validate returns F(u, v, b).
	Validate(u, v nodeid.ID, b *Graph) bool
	// MinimumDeploymentSize returns |G_min(F)| (Definition 7): the fewest
	// nodes in a graph containing at least one functional relation.
	MinimumDeploymentSize() int
}

// AcceptAll is the trivial validation function F ≡ 1 restricted to asserted
// relations: u accepts any v it has a tentative relation with. It has no
// security whatsoever and serves as the "no defense" baseline.
type AcceptAll struct{}

var _ ValidationFunc = AcceptAll{}

// Name implements ValidationFunc.
func (AcceptAll) Name() string { return "accept-all" }

// Validate implements ValidationFunc.
func (AcceptAll) Validate(u, v nodeid.ID, b *Graph) bool { return b.HasRelation(u, v) }

// MinimumDeploymentSize implements ValidationFunc: two related nodes.
func (AcceptAll) MinimumDeploymentSize() int { return 2 }

// CommonNeighborRule is the topology-only analogue of the paper's protocol:
// u accepts v iff (u, v) and (v, u) are asserted and u and v share at least
// Threshold+1 common tentative neighbors in B — with no cryptographic
// binding of neighbor lists. It is exactly the kind of localized,
// topology-only validation function that Theorems 1 and 2 prove breakable,
// and the adversary package implements the generic attack against it.
type CommonNeighborRule struct {
	// Threshold is the paper's t: validation requires ≥ t+1 common
	// neighbors.
	Threshold int
}

var _ ValidationFunc = CommonNeighborRule{}

// Name implements ValidationFunc.
func (r CommonNeighborRule) Name() string { return "common-neighbor(topology-only)" }

// Validate implements ValidationFunc.
func (r CommonNeighborRule) Validate(u, v nodeid.ID, b *Graph) bool {
	if !b.HasMutual(u, v) {
		return false
	}
	return b.CommonOut(u, v) >= r.Threshold+1
}

// MinimumDeploymentSize implements ValidationFunc: the endpoints plus t+1
// common neighbors.
func (r CommonNeighborRule) MinimumDeploymentSize() int { return r.Threshold + 3 }

// FunctionalTopology applies F at every node over its local view — the
// ego network of the given hop radius, modeling B(u) — and returns the
// functional network topology Ḡ (Definition 5): the edge (u, v) exists iff
// F(u, v, B(u)) = 1.
func FunctionalTopology(g *Graph, f ValidationFunc, hops int) *Graph {
	out := NewBuilder()
	for _, u := range g.ids {
		out.AddNode(u)
		b := g.EgoNetwork(u, hops)
		for _, v := range g.row(u) {
			if f.Validate(u, v, b) {
				out.AddRelation(u, v)
			}
		}
	}
	return out.Finalize()
}

// CheckIsomorphismInvariance verifies Definition 3's requirement on a
// concrete instance: F(u, v, B) must equal F(f(u), f(v), B^f) for the given
// isomorphism. It returns false on the first violated pair.
func CheckIsomorphismInvariance(f ValidationFunc, b *Graph, iso nodeid.Isomorphism) bool {
	relabeled := b.Relabel(iso)
	for _, u := range b.ids {
		for _, v := range b.row(u) {
			if f.Validate(u, v, b) != f.Validate(iso.Apply(u), iso.Apply(v), relabeled) {
				return false
			}
		}
	}
	return true
}

// Accuracy returns the fraction of ground-truth relations present in the
// functional topology: |Ē ∩ E*| / |E*| where E* is the actual (ground
// truth) relation set. This is the paper's accuracy metric (Section 3.2).
// It returns 1 for an empty ground truth.
func Accuracy(functional, truth *Graph) float64 {
	total := truth.NumRelations()
	if total == 0 {
		return 1
	}
	kept := 0
	for _, u := range truth.ids {
		for _, v := range truth.row(u) {
			if functional.HasRelation(u, v) {
				kept++
			}
		}
	}
	return float64(kept) / float64(total)
}
