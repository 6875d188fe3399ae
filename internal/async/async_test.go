package async

import (
	"math/rand"
	"testing"

	"snd/internal/core"
	"snd/internal/crypto"
	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/radio"
	"snd/internal/topology"
	"snd/internal/verify"
)

func newWorld(t *testing.T, nodes int, seed int64, lossProb float64) (*deploy.Layout, *radio.Medium, *crypto.MasterKey) {
	t.Helper()
	l := deploy.NewLayout(geometry.NewField(100, 100))
	rng := rand.New(rand.NewSource(seed))
	l.DeploySampled(deploy.Uniform{}, nodes, rng, 0)
	m := radio.NewMedium(l, radio.Config{Range: 50, InboxSize: 8192, LossProb: lossProb, Seed: seed})
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	return l, m, master
}

func TestDiscoverAllConcurrent(t *testing.T) {
	l, m, master := newWorld(t, 120, 1, 0)
	cfg := Config{Threshold: 3}
	functional, err := DiscoverAll(l, m, master, cfg, verify.Oracle{})
	if err != nil {
		t.Fatal(err)
	}
	truth := l.TruthGraph(50)
	acc := topology.Accuracy(functional, truth)
	if acc < 0.85 {
		t.Errorf("async accuracy = %v, want ≥ 0.85", acc)
	}
	if functional.NumNodes() != 120 {
		t.Errorf("functional nodes = %d", functional.NumNodes())
	}
}

func TestAsyncMatchesThresholdSemantics(t *testing.T) {
	// A 5-clique with t=2 validates everyone; with t=4 nobody (only 3
	// common neighbors per pair). Same boundary as the sync engine.
	build := func(threshold int) *topology.Graph {
		l := deploy.NewLayout(geometry.NewField(100, 100))
		for i := 0; i < 5; i++ {
			l.Deploy(geometry.Point{X: 40 + float64(i)*5, Y: 50}, 0)
		}
		m := radio.NewMedium(l, radio.Config{Range: 50, InboxSize: 64})
		master, err := crypto.NewMasterKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := DiscoverAll(l, m, master, Config{Threshold: threshold}, verify.Oracle{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if g := build(2); g.NumRelations() != 20 {
		t.Errorf("t=2 relations = %d, want 20 (full clique)", g.NumRelations())
	}
	if g := build(4); g.NumRelations() != 0 {
		t.Errorf("t=4 relations = %d, want 0", g.NumRelations())
	}
}

func TestDiscoveryTimeoutUnderLoss(t *testing.T) {
	// 30% packet loss: some records never arrive, so some nodes cannot
	// finish on their own. The discovery window closes when the network
	// settles: every node then validates with what it heard and ends up
	// operational, and Stop returns.
	l, m, master := newWorld(t, 60, 2, 0.3)
	n := NewNetwork(l, m, master, Config{Threshold: 0})
	tent := verify.TentativeGraph(l, verify.Oracle{}, 50)
	for _, d := range l.Devices() {
		if _, err := n.StartDiscovery(d.Handle, tent.Out(d.Node)); err != nil {
			t.Fatal(err)
		}
	}
	n.Settle()
	n.Stop()
	if m.Counters().LostRandom == 0 {
		t.Fatal("no frame was lost; the test exercises nothing")
	}
	b := topology.NewBuilder()
	for _, d := range l.Devices() {
		ep := n.Endpoint(d.Handle)
		if ep == nil {
			t.Fatalf("no endpoint for %v", d.Handle)
		}
		if ep.Phase() != core.PhaseOperational {
			t.Errorf("node %v still in phase %v after Settle", ep.ID(), ep.Phase())
		}
		b.AddNode(ep.ID())
		for _, v := range ep.Functional() {
			b.AddRelation(ep.ID(), v)
		}
	}
	// Despite loss, a meaningful part of the topology survives.
	if acc := topology.Accuracy(b.Finalize(), l.TruthGraph(50)); acc < 0.2 {
		t.Errorf("accuracy under 30%% loss = %v, implausibly low", acc)
	}
}

// TestLosslessRunsRepeat checks that on a lossless medium the result does
// not depend on scheduling: two boots of the same layout build the same
// functional topology from the same number of frames.
func TestLosslessRunsRepeat(t *testing.T) {
	boot := func() (*topology.Graph, radio.Counters) {
		l, m, master := newWorld(t, 80, 6, 0)
		g, err := DiscoverAll(l, m, master, Config{Threshold: 2}, verify.Oracle{})
		if err != nil {
			t.Fatal(err)
		}
		return g, m.Counters()
	}
	g1, c1 := boot()
	g2, c2 := boot()
	if !g1.Equal(g2) {
		t.Error("two lossless boots built different functional topologies")
	}
	if c1 != c2 {
		t.Errorf("radio counters differ: %+v vs %+v", c1, c2)
	}
}

func TestLonelyNodeFinishesImmediately(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(100, 100))
	d := l.Deploy(geometry.Point{X: 50, Y: 50}, 0)
	m := radio.NewMedium(l, radio.Config{Range: 50, InboxSize: 8})
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	// With no tentative neighbor there is nothing to wait for: the node
	// finishes without anyone settling the network.
	n := NewNetwork(l, m, master, Config{Threshold: 0})
	ch, err := n.StartDiscovery(d.Handle, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-ch
	n.Settle()
	n.Stop()
	if ep := n.Endpoint(d.Handle); ep.Phase() != core.PhaseOperational || len(ep.Functional()) != 0 {
		t.Errorf("lonely node: phase %v, functional %v", ep.Phase(), ep.Functional())
	}
}

func TestStartDiscoveryErrors(t *testing.T) {
	l, m, master := newWorld(t, 2, 3, 0)
	n := NewNetwork(l, m, master, Config{Threshold: 0})
	dev := l.Devices()[0]
	ch, err := n.StartDiscovery(dev.Handle, l.TruthGraph(50).Out(dev.Node))
	if err != nil {
		t.Fatal(err)
	}
	// Double start must fail.
	if _, err := n.StartDiscovery(dev.Handle, nil); err == nil {
		t.Error("double start accepted")
	}
	// The peer was never started, so its record never comes; settling
	// finishes the node anyway.
	n.Settle()
	<-ch
	n.Stop()
	// Unknown device.
	if err := n.StartResponder(deploy.Handle(99), nil); err == nil {
		t.Error("responder for unknown device accepted")
	}
	if _, err := n.StartDiscovery(deploy.Handle(99), nil); err == nil {
		t.Error("discovery on unknown device accepted")
	}
}

func TestStopIsIdempotentAndClean(t *testing.T) {
	l, m, master := newWorld(t, 20, 4, 0)
	cfg := Config{Threshold: 0}
	if _, err := DiscoverAll(l, m, master, cfg, verify.Oracle{}); err != nil {
		t.Fatal(err)
	}
	// DiscoverAll already stopped its network; building and stopping a
	// fresh one over the same medium must also work.
	n := NewNetwork(l, m, master, cfg)
	n.Stop()
	n.Stop()
}

func TestAsyncUpdateExtension(t *testing.T) {
	// Three waves over one persistent network: wave 1 boots a cluster;
	// wave 2's evidence lands at the operational nodes; wave 3's arrival
	// triggers binding-record update requests, which the fresh node
	// serves. Afterwards some wave-1 record carries version 1.
	l := deploy.NewLayout(geometry.NewField(100, 100))
	var wave1 []deploy.Handle
	for i := 0; i < 6; i++ {
		d := l.Deploy(geometry.Point{X: 40 + float64(i)*4, Y: 50}, 0)
		wave1 = append(wave1, d.Handle)
	}
	m := radio.NewMedium(l, radio.Config{Range: 50, InboxSize: 1024})
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(l, m, master, Config{Threshold: 1, MaxUpdates: 2})
	runWave := func(handles []deploy.Handle) {
		t.Helper()
		tent := verify.TentativeGraph(l, verify.Oracle{}, 50)
		for _, h := range handles {
			if _, err := n.StartDiscovery(h, tent.Out(l.Device(h).Node)); err != nil {
				t.Fatal(err)
			}
		}
		// Let evidence/commitments/update traffic land.
		n.Settle()
	}
	runWave(wave1)
	wave2 := []deploy.Handle{l.Deploy(geometry.Point{X: 45, Y: 54}, 1).Handle}
	runWave(wave2)
	wave3 := []deploy.Handle{l.Deploy(geometry.Point{X: 55, Y: 54}, 2).Handle}
	runWave(wave3)
	n.Stop()

	updated, budgetRespected := 0, true
	for _, h := range wave1 {
		ep := n.Endpoint(h)
		if ep == nil {
			t.Fatalf("no endpoint for %v", h)
		}
		rec := ep.Record()
		if rec.Version > 0 {
			updated++
		}
		if int(rec.Version) > 2 {
			budgetRespected = false
		}
		// Updates never shrink a record below its original neighborhood.
		if rec.Neighbors.Len() < 1 {
			t.Errorf("node %v ended with an empty record", rec.Node)
		}
	}
	if updated == 0 {
		t.Error("no wave-1 binding record was updated across three waves")
	}
	if !budgetRespected {
		t.Error("a record exceeded the m=2 update budget")
	}
	// Whether a specific wave's evidence lands depends on interleaving
	// (evidence bound to a superseded version is correctly discarded), so
	// only the occurrence and budget of updates are asserted.
}
