package snd_test

import (
	"math/rand"
	"testing"

	"snd"
	"snd/internal/deploy"
	"snd/internal/georoute"
	"snd/internal/radio"
)

// TestPublicAPIEndToEnd drives the whole story through the facade alone:
// deploy, validate, attack, audit, route — the integration path a user of
// the library follows.
func TestPublicAPIEndToEnd(t *testing.T) {
	s, err := snd.NewSimulation(snd.SimParams{
		Nodes: 250, Range: 25, Threshold: 4, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := s.Accuracy(); acc < 0.9 {
		t.Fatalf("benign accuracy = %v", acc)
	}

	// Attack: compromise a node near one corner and replicate it in the
	// opposite one (far beyond 3R, so the centralized detector below has
	// a chance too — nearer replicas are its documented blind spot).
	victim := closestTo(s, snd.Point{X: 90, Y: 90})
	if err := s.Compromise(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlantReplica(victim, snd.Point{X: 6, Y: 6}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeployRound(80); err != nil {
		t.Fatal(err)
	}

	// Audit: Theorem 3 holds.
	reports := s.AuditSafety(2 * s.Params().Range)
	for _, r := range reports {
		if r.Violated {
			t.Errorf("2R violated: %v", r)
		}
	}

	// Route over the validated topology.
	pos := make(map[snd.NodeID]snd.Point)
	for _, d := range s.Layout().Devices() {
		if !d.Replica && d.Alive {
			pos[d.Node] = d.Pos
		}
	}
	router := georoute.New(pos, s.FunctionalGraph(), nil)
	ids := s.FunctionalGraph().Nodes()
	delivered := 0
	for i := 0; i < 30; i++ {
		res, err := router.Route(ids[i], ids[len(ids)-1-i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered {
			delivered++
		}
	}
	if delivered < 20 {
		t.Errorf("delivered %d/30 over functional topology", delivered)
	}

	// The centralized detector also sees the replica in the tentative
	// topology.
	flagged := snd.DetectSplitNeighborhoods(s.Tentative(), 2)
	found := false
	for _, id := range flagged {
		if id == victim {
			found = true
		}
	}
	if !found {
		t.Errorf("central detector missed the replica; flagged %v", flagged)
	}
}

// closestTo returns the node whose device is nearest p.
func closestTo(s *snd.Simulation, p snd.Point) snd.NodeID {
	var best snd.NodeID
	bestD := -1.0
	for _, d := range s.Layout().Devices() {
		if d.Replica || !d.Alive {
			continue
		}
		if dist := d.Pos.Dist2(p); bestD < 0 || dist < bestD {
			best, bestD = d.Node, dist
		}
	}
	return best
}

// TestPublicAPISchemes exercises every key predistribution constructor.
func TestPublicAPISchemes(t *testing.T) {
	var schemes []snd.PairwiseScheme
	schemes = append(schemes, snd.NewKDFScheme([]byte("s")))
	eg, err := snd.NewEGScheme(50, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	eg.Provision(1)
	eg.Provision(2)
	schemes = append(schemes, eg)
	bl, err := snd.NewBlundoScheme(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	schemes = append(schemes, bl)
	pp, err := snd.NewPolyPoolScheme(10, 8, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pp.Provision(1)
	pp.Provision(2)
	schemes = append(schemes, pp)

	for _, s := range schemes {
		if !s.SupportsPair(1, 2) {
			t.Errorf("%s: pair unsupported", s.Name())
			continue
		}
		k1, err := s.KeyFor(1, 2)
		if err != nil {
			t.Errorf("%s: %v", s.Name(), err)
			continue
		}
		k2, err := s.KeyFor(2, 1)
		if err != nil || string(k1) != string(k2) {
			t.Errorf("%s: asymmetric keys", s.Name())
		}
	}
}

// TestPublicAPIModel sanity-checks the analytical model and the protocol
// primitives through the facade.
func TestPublicAPIModel(t *testing.T) {
	m := snd.AnalyticalModel{Density: 0.02, Range: 50}
	if acc := m.Accuracy(30); acc < 0.9 {
		t.Errorf("model accuracy at t=30 = %v", acc)
	}
	master, err := snd.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := snd.NewNode(1, master, snd.ProtocolConfig{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BeginDiscovery(snd.NewNodeSet(2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.FinishDiscovery(); err != nil {
		t.Fatal(err)
	}
	if n.HoldsMasterKey() {
		t.Error("K not erased")
	}
}

// TestPublicAPIConcurrentBoot runs the goroutine-per-node engine through
// the facade.
func TestPublicAPIConcurrentBoot(t *testing.T) {
	layout := snd.NewLayout(snd.NewField(100, 100))
	layout.DeploySampled(deploy.Uniform{}, 60, rand.New(rand.NewSource(1)), 0)
	medium := radio.NewMedium(layout, radio.Config{Range: 50, InboxSize: 4096})
	master, err := snd.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := snd.DiscoverAll(layout, medium, master,
		snd.AsyncConfig{Threshold: 3}, snd.OracleVerifier{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := snd.TopologyAccuracy(g, layout.TruthGraph(50)); acc < 0.8 {
		t.Errorf("async accuracy = %v", acc)
	}
}
