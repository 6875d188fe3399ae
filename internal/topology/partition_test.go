package topology

import (
	"slices"
	"testing"

	"snd/internal/nodeid"
)

// threeComponentGraph builds: {1,2,3,4} connected, {5,6} connected, {7}
// isolated.
func threeComponentGraph() *Graph {
	return build(func(b *Builder) {
		b.AddMutual(1, 2)
		b.AddMutual(2, 3)
		b.AddMutual(3, 4)
		b.AddMutual(5, 6)
		b.AddNode(7)
	})
}

func TestPartitionsSizesAndOrder(t *testing.T) {
	parts := threeComponentGraph().Partitions()
	if len(parts) != 3 {
		t.Fatalf("partitions = %d, want 3", len(parts))
	}
	wantSizes := []int{4, 2, 1}
	for i, want := range wantSizes {
		if parts[i].Size() != want {
			t.Errorf("partition %d size = %d, want %d", i, parts[i].Size(), want)
		}
	}
	if !slices.Equal(parts[0].Members, nodeid.NewSet(1, 2, 3, 4)) {
		t.Errorf("largest partition = %v", parts[0].Members)
	}
}

func TestPartitionsFollowDirectedEdgesBothWays(t *testing.T) {
	// Weak connectivity: 1 -> 2 with no reverse edge still groups them.
	g := build(func(b *Builder) { b.AddRelation(1, 2) })
	parts := g.Partitions()
	if len(parts) != 1 || parts[0].Size() != 2 {
		t.Errorf("partitions = %+v", parts)
	}
}

func TestPartitionsEmptyGraph(t *testing.T) {
	if parts := NewBuilder().Finalize().Partitions(); len(parts) != 0 {
		t.Errorf("empty graph partitions = %d", len(parts))
	}
}

func TestIsolatedNodesLargestOnly(t *testing.T) {
	g := threeComponentGraph()
	got := g.IsolatedNodes(LargestOnly{})
	want := []nodeid.ID{5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("isolated = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("isolated = %v, want %v", got, want)
		}
	}
}

// MinSize treats every partition with at least N members as useful, a
// second usefulness policy for the paper's "can be defined in many ways".
type MinSize struct{ N int }

// Useful implements UsefulPolicy.
func (m MinSize) Useful(_ int, p Partition) bool { return p.Size() >= m.N }

func TestIsolatedNodesMinSize(t *testing.T) {
	g := threeComponentGraph()
	got := g.IsolatedNodes(MinSize{N: 2})
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("isolated under MinSize(2) = %v, want [7]", got)
	}
	all := g.IsolatedNodes(MinSize{N: 10})
	if len(all) != 7 {
		t.Errorf("isolated under MinSize(10) = %v, want all 7 nodes", all)
	}
}

func TestPartitionsDeterministicTieBreak(t *testing.T) {
	g := build(func(b *Builder) {
		b.AddMutual(10, 11)
		b.AddMutual(2, 3)
	})
	for trial := 0; trial < 10; trial++ {
		parts := g.Partitions()
		if len(parts) != 2 {
			t.Fatal("want 2 partitions")
		}
		if parts[0].Members[0] != 2 {
			t.Fatalf("tie break unstable: first partition %v", parts[0].Members)
		}
	}
}
