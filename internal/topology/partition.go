package topology

import (
	"sort"

	"snd/internal/nodeid"
)

// Partition is one weakly connected component of a functional topology.
type Partition struct {
	Members nodeid.Set
}

// Size returns the number of nodes in the partition.
func (p Partition) Size() int { return p.Members.Len() }

// Partitions returns the weakly connected components of the graph, largest
// first (ties broken by smallest member ID for determinism). Isolated
// vertices form singleton partitions. The traversal runs over dense row
// indices with a flat visited array, so it stays usable at 10⁶ vertices.
func (g *Graph) Partitions() []Partition {
	g.reverse()
	visited := make([]bool, len(g.ids))
	var stack []int
	var parts []Partition
	for start := range g.ids {
		if visited[start] {
			continue
		}
		members := nodeid.NewSet()
		visited[start] = true
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members.Add(g.ids[i])
			for _, v := range g.adj[g.off[i]:g.off[i+1]] {
				if j := g.idx(v); !visited[j] {
					visited[j] = true
					stack = append(stack, j)
				}
			}
			for _, v := range g.inAdj[g.inOff[i]:g.inOff[i+1]] {
				if j := g.idx(v); !visited[j] {
					visited[j] = true
					stack = append(stack, j)
				}
			}
		}
		parts = append(parts, Partition{Members: members})
	}
	sortPartitions(parts)
	return parts
}

// sortPartitions orders components largest first, ties broken by smallest
// member ID.
func sortPartitions(parts []Partition) {
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].Size() != parts[j].Size() {
			return parts[i].Size() > parts[j].Size()
		}
		return minID(parts[i].Members) < minID(parts[j].Members)
	})
}

func minID(s nodeid.Set) nodeid.ID {
	var min nodeid.ID
	first := true
	for id := range s {
		if first || id < min {
			min = id
			first = false
		}
	}
	return min
}

// UsefulPolicy decides which partitions an application considers usable
// ("This usefulness can be defined in many ways, depending on the actual
// application").
type UsefulPolicy interface {
	// Useful reports whether the partition at rank (0 = largest) is useful.
	Useful(rank int, p Partition) bool
}

// LargestOnly treats only the single largest partition as useful, the
// policy used in the paper's Figure 1 discussion.
type LargestOnly struct{}

// Useful implements UsefulPolicy.
func (LargestOnly) Useful(rank int, _ Partition) bool { return rank == 0 }

// MinSize treats every partition with at least N members as useful.
type MinSize struct{ N int }

// Useful implements UsefulPolicy.
func (m MinSize) Useful(_ int, p Partition) bool { return p.Size() >= m.N }

// IsolatedNodes returns the nodes that belong to no useful partition under
// the given policy, in ascending ID order. A node is "non-isolated if it
// belongs to a useful partition; otherwise, it is isolated."
func (g *Graph) IsolatedNodes(policy UsefulPolicy) []nodeid.ID {
	return selectByUsefulness(g.Partitions(), policy, false)
}

// NonIsolatedNodes returns the complement of IsolatedNodes.
func (g *Graph) NonIsolatedNodes(policy UsefulPolicy) []nodeid.ID {
	return selectByUsefulness(g.Partitions(), policy, true)
}

// selectByUsefulness gathers the members of the partitions whose
// usefulness under the policy matches wantUseful, ascending.
func selectByUsefulness(parts []Partition, policy UsefulPolicy, wantUseful bool) []nodeid.ID {
	picked := nodeid.NewSet()
	for rank, p := range parts {
		if policy.Useful(rank, p) != wantUseful {
			continue
		}
		for id := range p.Members {
			picked.Add(id)
		}
	}
	return picked.Sorted()
}
