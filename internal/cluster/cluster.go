// Package cluster implements the clustering algorithms the paper's
// introduction uses to motivate secure neighbor discovery: lowest-ID
// neighborhood election ("a sensor node will be a cluster head if it has
// the smallest ID in its neighborhood", refs [1], [2]) and Amis et al.'s
// Max–Min d-cluster formation (INFOCOM 2000, the paper's reference [1]).
//
// Both consume a neighbor graph (a *topology.Graph), tentative or
// functional — which is the attack surface the paper describes: over a
// replica-polluted topology, "many sensor nodes far from each other may be
// included in the same cluster", communication inside clusters becomes
// expensive, and aggregates computed per cluster go wrong.
package cluster

import (
	"fmt"
	"slices"

	"snd/internal/nodeid"
	"snd/internal/topology"
)

// Assignment maps every node to its elected cluster head.
type Assignment map[nodeid.ID]nodeid.ID

// Heads returns the distinct cluster heads, ascending.
func (a Assignment) Heads() []nodeid.ID {
	heads := make([]nodeid.ID, 0, len(a))
	for _, h := range a {
		heads = append(heads, h)
	}
	slices.Sort(heads)
	return slices.Compact(heads)
}

// LowestID elects, for every node, the smallest ID in its closed
// out-neighborhood — the classic 1-hop heuristic of the paper's
// introduction.
func LowestID(g *topology.Graph) Assignment {
	a := make(Assignment, g.NumNodes())
	for _, u := range g.Nodes() {
		head := u
		for _, v := range g.Out(u) {
			if v < head {
				head = v
			}
		}
		a[u] = head
	}
	return a
}

// MaxMinD runs Amis et al.'s Max–Min d-cluster formation: d rounds of
// floodmax (each node adopts the largest winner ID heard, forming
// d-hop-dominating candidates) followed by d rounds of floodmin (winners
// concede ground back so smaller clusters survive), then the standard
// three election rules:
//
//  1. a node that sees its own ID among the floodmin results is a head;
//  2. otherwise it picks the smallest "node pair" — an ID appearing in
//     both its floodmax and floodmin logs;
//  3. otherwise it falls back to the largest ID in its floodmax log.
//
// The head a node elects is at most d hops away in a connected component.
// Messages are exchanged along graph relations (undirected view), exactly
// as the nodes would flood over their neighbor lists.
func MaxMinD(g *topology.Graph, d int) (Assignment, error) {
	if d < 1 {
		return nil, fmt.Errorf("cluster: d must be ≥ 1, got %d", d)
	}
	nodes := g.Nodes()
	winner := make(map[nodeid.ID]nodeid.ID, len(nodes))
	for _, u := range nodes {
		winner[u] = u
	}
	maxLog := make(map[nodeid.ID][]nodeid.ID, len(nodes))
	minLog := make(map[nodeid.ID][]nodeid.ID, len(nodes))

	// Floodmax.
	for round := 0; round < d; round++ {
		next := make(map[nodeid.ID]nodeid.ID, len(nodes))
		for _, u := range nodes {
			best := winner[u]
			forEachUndirected(g, u, func(v nodeid.ID) {
				if winner[v] > best {
					best = winner[v]
				}
			})
			next[u] = best
		}
		winner = next
		for _, u := range nodes {
			maxLog[u] = append(maxLog[u], winner[u])
		}
	}
	// Floodmin, seeded with the floodmax result.
	for round := 0; round < d; round++ {
		next := make(map[nodeid.ID]nodeid.ID, len(nodes))
		for _, u := range nodes {
			best := winner[u]
			forEachUndirected(g, u, func(v nodeid.ID) {
				if winner[v] < best {
					best = winner[v]
				}
			})
			next[u] = best
		}
		winner = next
		for _, u := range nodes {
			minLog[u] = append(minLog[u], winner[u])
		}
	}

	a := make(Assignment, len(nodes))
	for _, u := range nodes {
		a[u] = elect(u, maxLog[u], minLog[u])
	}
	return a, nil
}

func elect(u nodeid.ID, maxLog, minLog []nodeid.ID) nodeid.ID {
	// Rule 1: own ID among floodmin results.
	for _, id := range minLog {
		if id == u {
			return u
		}
	}
	// Rule 2: smallest node pair (ID present in both logs).
	inMax := nodeid.NewSet(maxLog...)
	var pair nodeid.ID
	for _, id := range minLog {
		if inMax.Contains(id) && (pair == nodeid.None || id < pair) {
			pair = id
		}
	}
	if pair != nodeid.None {
		return pair
	}
	// Rule 3: maximum ID seen during floodmax.
	best := u
	for _, id := range maxLog {
		if id > best {
			best = id
		}
	}
	return best
}

// forEachUndirected calls fn once for every v related to u in either
// direction: out-neighbors first, then in-neighbors u does not assert.
func forEachUndirected(g *topology.Graph, u nodeid.ID, fn func(v nodeid.ID)) {
	for _, v := range g.Out(u) {
		fn(v)
	}
	for _, v := range g.In(u) {
		if !g.HasRelation(u, v) {
			fn(v)
		}
	}
}

// Diameter2Cost estimates the intra-cluster communication badness the
// paper's introduction warns about: for each cluster, the maximum graph
// distance (in hops over the undirected view, capped at limit) between
// any member and its head; returns the worst over all clusters.
// Unreachable heads count as limit — the pathological "same cluster, far
// apart" case.
func Diameter2Cost(g *topology.Graph, a Assignment, limit int) int {
	worst := 0
	for n, head := range a {
		d := hopDistance(g, n, head, limit)
		if d > worst {
			worst = d
		}
	}
	return worst
}

func hopDistance(g *topology.Graph, from, to nodeid.ID, limit int) int {
	if from == to {
		return 0
	}
	frontier := []nodeid.ID{from}
	visited := map[nodeid.ID]bool{from: true}
	for depth := 1; depth <= limit; depth++ {
		var next []nodeid.ID
		for _, u := range frontier {
			found := false
			forEachUndirected(g, u, func(v nodeid.ID) {
				if v == to {
					found = true
				}
				if !visited[v] {
					visited[v] = true
					next = append(next, v)
				}
			})
			if found {
				return depth
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = next
	}
	return limit
}
