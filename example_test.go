package snd_test

import (
	"fmt"

	"snd"
)

// ExampleNewSimulation runs the paper's Figure 3 setup once and reports
// the validated-neighbor accuracy.
func ExampleNewSimulation() {
	s, err := snd.NewSimulation(snd.SimParams{Nodes: 200, Threshold: 30, Seed: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("center-node accuracy at t=30: %.2f\n", s.CenterAccuracy())
	// Output:
	// center-node accuracy at t=30: 1.00
}

// ExampleNewNode walks the protocol on a single node: discovery, record
// authentication, threshold validation, and master key erasure.
func ExampleNewNode() {
	master, err := snd.NewMasterKey(nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg := snd.ProtocolConfig{Threshold: 1} // need 2 common neighbors

	u, _ := snd.NewNode(10, master, cfg)
	_ = u.BeginDiscovery(snd.NewNodeSet(1, 2, 3))

	// Peers 1 and 2 share neighbors {3, 10}∪ with u; peer 3 is a loner.
	for id, neighbors := range map[snd.NodeID]snd.NodeSet{
		1: snd.NewNodeSet(10, 2, 3),
		2: snd.NewNodeSet(10, 1, 3),
		3: snd.NewNodeSet(10),
	} {
		peer, _ := snd.NewNode(id, master, cfg)
		_ = peer.BeginDiscovery(neighbors)
		_ = u.ReceiveBindingRecord(peer.Record())
	}
	res, _ := u.FinishDiscovery()

	fmt.Println("functional neighbors:", u.Functional())
	fmt.Println("commitments issued:", len(res.Commitments))
	fmt.Println("master key erased:", !u.HoldsMasterKey())
	// Output:
	// functional neighbors: [n1 n2]
	// commitments issued: 2
	// master key erased: true
}

// ExampleAnalyticalModel evaluates the paper's Section 4.4.1 closed form.
func ExampleAnalyticalModel() {
	m := snd.AnalyticalModel{Density: 0.02, Range: 50} // Figure 3's setup
	fmt.Printf("expected neighbors: %.0f\n", m.ExpectedNeighbors())
	fmt.Printf("accuracy at t=30:  %.2f\n", m.Accuracy(30))
	fmt.Printf("accuracy at t=150: %.3f\n", m.Accuracy(150))
	// Output:
	// expected neighbors: 156
	// accuracy at t=30:  1.00
	// accuracy at t=150: 0.002
}

// ExampleCommonNeighborRule shows the topology-only rule that Theorems 1–2
// prove attackable.
func ExampleCommonNeighborRule() {
	b := snd.NewGraphBuilder()
	for _, pair := range [][2]snd.NodeID{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}} {
		b.AddMutual(pair[0], pair[1])
	}
	g := b.Finalize()
	rule := snd.CommonNeighborRule{Threshold: 1}
	fmt.Println("1 validates 2:", rule.Validate(1, 2, g))
	fmt.Println("minimum deployment:", rule.MinimumDeploymentSize())
	// Output:
	// 1 validates 2: true
	// minimum deployment: 4
}
