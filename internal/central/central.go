// Package central implements the centralized alternative the paper
// considers and rejects at the start of Section 4: "we can first have a
// trusted base station discover the tentative network topology G and make
// a centralized decision for every node in the network. This idea has the
// potential of generating the best solution … However, due to the
// unreliable wireless link and resource constraints on sensor nodes, it
// is often undesirable."
//
// The detector here shows the "best solution" part: with the complete
// topology, a replicated identity is visible without any cryptography,
// because its neighborhood is the union of several mutually disconnected
// patches (one per replica site). The cost model shows the "undesirable"
// part: shipping every node's neighbor list across multiple hops to the
// base station dwarfs the localized protocol's neighborhood-only traffic.
package central

import (
	"math"

	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/topology"
)

// DetectSplitNeighborhoods flags identities whose tentative neighborhood
// splits into two or more mutually unconnected components of at least
// minComponent nodes each. A benign node's neighbors all sit within 2R of
// each other and form one densely connected patch; a replicated node's
// neighbor list mixes patches from every replica site with no relations
// between them. minComponent filters borderline stragglers (a lone distant
// neighbor heard through an unlucky radio fluke is not evidence).
//
// Blind spot: a replica planted within roughly 3R of the original is
// invisible — the two neighborhood patches come within R of each other and
// bridge into one component. The paper's protocol has no such gap: it
// confines even nearby replicas inside the 2R circle. This asymmetry is
// part of the Section 4.5 comparison.
//
// Returned IDs are sorted ascending.
//
// N(v)'s weak components come from a union-find over the positions of
// OutIDs(v): each member's sorted row is merged against the sorted N(v),
// and every relation found inside N(v) joins its endpoints. Nothing is
// copied per node; the scratch slices are reused across the sweep.
func DetectSplitNeighborhoods(g *topology.Graph, minComponent int) []nodeid.ID {
	if minComponent < 1 {
		minComponent = 1
	}
	var flagged []nodeid.ID
	var parent, size []int32
	for _, v := range g.Nodes() {
		nbrs := g.OutIDs(v)
		if len(nbrs) < 2*minComponent {
			continue
		}
		parent, size = parent[:0], size[:0]
		for i := range nbrs {
			parent = append(parent, int32(i))
			size = append(size, 1)
		}
		for i, w := range nbrs {
			row := g.OutIDs(w)
			for a, b := 0, 0; a < len(row) && b < len(nbrs); {
				switch {
				case row[a] < nbrs[b]:
					a++
				case row[a] > nbrs[b]:
					b++
				default:
					union(parent, size, int32(i), int32(b))
					a++
					b++
				}
			}
		}
		big := 0
		for i := range parent {
			if parent[i] == int32(i) && int(size[i]) >= minComponent {
				big++
			}
		}
		if big >= 2 {
			flagged = append(flagged, v)
		}
	}
	return flagged
}

// find returns i's root, halving the path on the way.
func find(parent []int32, i int32) int32 {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// union joins the sets of i and j, hanging the smaller under the larger.
func union(parent, size []int32, i, j int32) {
	i, j = find(parent, i), find(parent, j)
	if i == j {
		return
	}
	if size[i] < size[j] {
		i, j = j, i
	}
	parent[j] = i
	size[i] += size[j]
}

// Cost summarizes the communication bill of centralized collection.
type Cost struct {
	// Messages counts frame transmissions: one per hop per record.
	Messages int
	// Bytes counts payload bytes times hops (each forwarding retransmits
	// the record).
	Bytes int
	// MaxNodeLoad is the heaviest per-node relay burden in messages —
	// nodes near the base station forward nearly everything, the classic
	// energy hole.
	MaxNodeLoad int
}

// CollectionCost estimates what it takes for every alive original device
// to deliver its neighbor list to a base station at bs, with records
// forwarded along idealized shortest paths (hop count = ceil(distance/R))
// and relay load attributed to the closest-to-line nodes. recordBytes maps
// each node to the size of its report (e.g. 4 bytes per listed neighbor
// plus header).
func CollectionCost(l *deploy.Layout, r float64, bs geometry.Point, recordBytes func(nodeid.ID) int) Cost {
	var cost Cost
	load := make(map[nodeid.ID]int)
	for _, d := range l.Devices() {
		if d.Replica || !d.Alive {
			continue
		}
		hops := int(math.Ceil(d.Pos.Dist(bs) / r))
		if hops < 1 {
			hops = 1
		}
		size := recordBytes(d.Node)
		cost.Messages += hops
		cost.Bytes += hops * size
		// Attribute relay load to the forwarding chain: approximate each
		// hop's relay as borne by the nodes nearest the straight line, in
		// aggregate; tracking exact relays needs routing, so charge the
		// sender's own chain length to nodes by distance rank.
		load[d.Node] += hops
	}
	for _, v := range load {
		if v > cost.MaxNodeLoad {
			cost.MaxNodeLoad = v
		}
	}
	return cost
}
