package sim

import (
	"math"
	"testing"

	"snd/internal/analysis"
	"snd/internal/core"
	"snd/internal/crypto"
	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
)

// nodeIDFor converts a 1-based index into the logical ID the layout will
// assign to the i-th deployed node.
func nodeIDFor(i int) nodeid.ID { return nodeid.ID(i) }

func TestNewDefaultsRunDiscovery(t *testing.T) {
	s, err := New(Params{Seed: 1, Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.Layout().Count() != 200 {
		t.Fatalf("deployed %d devices", s.Layout().Count())
	}
	if s.Round() != 1 {
		t.Errorf("rounds = %d", s.Round())
	}
	// Every endpoint finished discovery and erased K.
	for _, d := range s.Layout().Devices() {
		ep := s.Endpoint(d.Handle)
		if ep == nil {
			t.Fatalf("device %v has no endpoint", d.Node)
		}
		if ep.HoldsMasterKey() {
			t.Fatalf("node %v still holds K", d.Node)
		}
	}
	if s.ProtocolErrors() != 0 {
		t.Errorf("protocol errors in benign run: %d", s.ProtocolErrors())
	}
	// Messages actually flowed through the radio.
	c := s.Medium().Counters()
	if c.Sent == 0 || c.Delivered == 0 {
		t.Errorf("no radio traffic recorded: %+v", c)
	}
	if c.LostOverflow != 0 {
		t.Errorf("inbox overflow in default run: %+v", c)
	}
}

func TestAccuracyHighAtLowThreshold(t *testing.T) {
	t.Parallel()
	s, err := New(Params{Seed: 2, Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if acc := s.Accuracy(); acc < 0.9 {
		t.Errorf("accuracy at t=0 is %v, want ≥ 0.9", acc)
	}
}

func TestAccuracyDecreasesWithThreshold(t *testing.T) {
	t.Parallel()
	var prev = 1.1
	for _, threshold := range []int{0, 40, 80, 120} {
		s, err := New(Params{Seed: 3, Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		acc := s.Accuracy()
		if acc > prev+0.02 { // small slack for sampling noise
			t.Errorf("accuracy increased from %v to %v at t=%d", prev, acc, threshold)
		}
		prev = acc
	}
}

func TestCenterAccuracyTracksTheory(t *testing.T) {
	t.Parallel()
	// Figure 3 correspondence: simulation near the theoretical curve.
	model := analysis.Model{Density: 0.02, Range: 50}
	for _, threshold := range []int{30, 90, 130} {
		want := model.Accuracy(threshold)
		got := 0.0
		const trials = 12
		for seed := int64(0); seed < trials; seed++ {
			s, err := New(Params{Seed: 100 + seed, Threshold: threshold})
			if err != nil {
				t.Fatal(err)
			}
			got += s.CenterAccuracy()
		}
		got /= trials
		if math.Abs(got-want) > 0.15 {
			t.Errorf("t=%d: sim accuracy %.3f vs theory %.3f", threshold, got, want)
		}
	}
}

func TestIncrementalDeployment(t *testing.T) {
	t.Parallel()
	s, err := New(Params{Seed: 4, Threshold: 5, Nodes: 150})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeployRound(50); err != nil {
		t.Fatal(err)
	}
	if s.Round() != 2 {
		t.Fatalf("rounds = %d", s.Round())
	}
	if s.Layout().Count() != 200 {
		t.Fatalf("devices = %d", s.Layout().Count())
	}
	// Old nodes accepted fresh ones via relation commitments: some edge
	// from a round-0 node to a round-1 node must exist.
	functional := s.FunctionalGraph()
	crossEdges := 0
	for _, d := range s.Layout().Devices() {
		if d.Round != 0 {
			continue
		}
		ep := s.Endpoint(d.Handle)
		for _, v := range ep.Functional() {
			if vd := s.Layout().Primary(v); vd != nil && vd.Round == 1 {
				crossEdges++
			}
		}
	}
	if crossEdges == 0 {
		t.Error("no old->new functional relations; commitments not working")
	}
	_ = functional
}

func TestReplicaContainment2R(t *testing.T) {
	t.Parallel()
	// The paper's headline guarantee, end to end over the radio: a
	// compromised node replicated across the field cannot gain functional
	// acceptance outside a circle of radius 2R when ≤ t nodes are
	// compromised. R = 25 keeps 2R = 50 m well below the field diagonal so
	// the bound is actually constraining.
	s, err := New(Params{Seed: 5, Threshold: 4, Nodes: 300, Range: 25})
	if err != nil {
		t.Fatal(err)
	}
	// Compromise the node closest to the center and replicate it in the
	// four corners, each ≈ 63 m (> 2R) from the victim's origin.
	victim := s.Layout().ClosestToCenter().Node
	if err := s.Compromise(victim); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []geometry.Point{{X: 5, Y: 5}, {X: 95, Y: 5}, {X: 5, Y: 95}, {X: 95, Y: 95}} {
		if _, err := s.PlantReplica(victim, pos); err != nil {
			t.Fatal(err)
		}
	}
	// New nodes arrive everywhere; replicas try to join their discovery.
	if err := s.DeployRound(100); err != nil {
		t.Fatal(err)
	}
	reports := s.AuditSafety(2 * s.Params().Range)
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[0].Violated {
		t.Errorf("2R-safety violated with 1 ≤ t compromised: %v", reports[0])
	}
	if reports[0].Reach > 2*s.Params().Range {
		t.Errorf("reach %v exceeds 2R: %v", reports[0].Reach, reports[0])
	}
}

func TestCloneCliqueBreaksThreshold(t *testing.T) {
	t.Parallel()
	// With k = t+2 co-located compromised nodes replicated together at a
	// remote site, fresh nodes there validate them: the threshold
	// guarantee is tight.
	const threshold = 4
	s, err := New(Params{Seed: 6, Threshold: threshold, Nodes: 300, Range: 20})
	if err != nil {
		t.Fatal(err)
	}
	clique, target, err := s.CloneCliqueAttack(threshold+2, geometry.Point{})
	if err != nil {
		t.Fatal(err)
	}
	origin := s.Layout().Primary(clique[0]).Origin
	if origin.Dist(target) <= 2*s.Params().Range {
		t.Fatalf("auto-target %v too close to clique home %v", target, origin)
	}
	// Steer part of the fresh round into the staging area so the replicas
	// meet new nodes, and scatter the rest.
	staging := geometry.Rect{
		Min: geometry.Point{X: target.X - 15, Y: target.Y - 15},
		Max: geometry.Point{X: target.X + 15, Y: target.Y + 15},
	}
	if err := s.DeployRoundAt(20, deploy.Within{Region: staging}); err != nil {
		t.Fatal(err)
	}
	reports := s.AuditSafety(2 * s.Params().Range)
	if violations := core.Violations(reports); violations == 0 {
		t.Errorf("clone clique of %d (> t=%d) produced no 2R violation; worst: %v",
			len(clique), threshold, core.WorstCase(reports))
	}
}

func TestForgeFloodDoesNotReduceAccuracy(t *testing.T) {
	t.Parallel()
	s, err := New(Params{Seed: 7, Threshold: 5, Nodes: 150})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Accuracy()
	victim := s.Layout().ClosestToCenter().Node
	if err := s.Compromise(victim); err != nil {
		t.Fatal(err)
	}
	rep, err := s.PlantReplica(victim, geometry.Point{X: 20, Y: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ForgeFlood(rep.Handle, 300); err != nil {
		t.Fatal(err)
	}
	after := s.Accuracy()
	if after < before {
		t.Errorf("forge flood reduced accuracy: %v -> %v", before, after)
	}
	if s.ProtocolErrors() == 0 {
		t.Error("no forged messages were rejected — flood not delivered?")
	}
}

func TestSecureChannelsEquivalentAccuracy(t *testing.T) {
	t.Parallel()
	plain, err := New(Params{Seed: 8, Threshold: 5, Nodes: 120})
	if err != nil {
		t.Fatal(err)
	}
	secured, err := New(Params{
		Seed: 8, Threshold: 5, Nodes: 120,
		SecureChannels: true,
		Scheme:         crypto.NewKDFScheme([]byte("net secret")),
	})
	if err != nil {
		t.Fatal(err)
	}
	pa, sa := plain.Accuracy(), secured.Accuracy()
	if math.Abs(pa-sa) > 1e-9 {
		t.Errorf("secure channels changed accuracy: %v vs %v", pa, sa)
	}
	if secured.ChannelFailures() != 0 {
		t.Errorf("channel failures with full-coverage scheme: %d", secured.ChannelFailures())
	}
}

func TestSecureChannelsRequireScheme(t *testing.T) {
	if _, err := New(Params{Seed: 1, SecureChannels: true}); err == nil {
		t.Error("SecureChannels without scheme accepted")
	}
}

func TestEGSchemeCoverageGatesDiscovery(t *testing.T) {
	t.Parallel()
	// Ablation: a sparse Eschenauer–Gligor configuration leaves some pairs
	// keyless, so some record exchanges fail and accuracy drops relative
	// to full coverage.
	eg, err := crypto.NewEGScheme(500, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Provision generously: the sim assigns IDs 1..N in order.
	for id := 1; id <= 400; id++ {
		eg.Provision(nodeIDFor(id))
	}
	s, err := New(Params{
		Seed: 9, Threshold: 3, Nodes: 150,
		SecureChannels: true,
		Scheme:         eg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.ChannelFailures() == 0 {
		t.Error("expected some keyless pairs with P=500, k=20")
	}
	full, err := New(Params{Seed: 9, Threshold: 3, Nodes: 150})
	if err != nil {
		t.Fatal(err)
	}
	if s.Accuracy() > full.Accuracy()+1e-9 {
		t.Errorf("EG accuracy %v exceeds full-coverage %v", s.Accuracy(), full.Accuracy())
	}
}

func TestOverheadReport(t *testing.T) {
	t.Parallel()
	s, err := New(Params{Seed: 10, Threshold: 10, Nodes: 150})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Overhead()
	if o.MessagesPerNode <= 0 || o.BytesPerNode <= 0 {
		t.Errorf("no communication overhead recorded: %+v", o)
	}
	if o.HashOpsPerNode <= 0 {
		t.Errorf("no hash ops recorded: %+v", o)
	}
	if o.StorageMeanBytes <= 0 || o.StorageMaxBytes <= 0 {
		t.Errorf("no storage recorded: %+v", o)
	}
	// A node's persistent state is dominated by its binding record:
	// roughly 40 + 4·neighbors + evidences — order hundreds of bytes, not
	// megabytes.
	if o.StorageMaxBytes > 100_000 {
		t.Errorf("implausible storage: %+v", o)
	}
}

func TestUpdatesImproveAgingNetworkAccuracy(t *testing.T) {
	t.Parallel()
	run := func(disable bool) float64 {
		s, err := New(Params{
			Seed: 11, Threshold: 6, Nodes: 200, MaxUpdates: 3,
			DisableUpdates: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Age the network: kill a third, redeploy in waves so evidences
		// accumulate and updates can happen.
		s.KillFraction(0.3)
		for i := 0; i < 3; i++ {
			if err := s.DeployRound(40); err != nil {
				t.Fatal(err)
			}
		}
		return s.Accuracy()
	}
	with := run(false)
	without := run(true)
	if with < without {
		t.Errorf("updates made accuracy worse: with=%v without=%v", with, without)
	}
	if with == without {
		t.Logf("updates made no difference (with=%v); weak but not fatal", with)
	}
}

func TestJammingBlocksDiscovery(t *testing.T) {
	s, err := New(Params{Seed: 12, Threshold: 0, Nodes: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Jam the whole field, then deploy: nobody hears anything.
	s.Medium().Jam(geometry.Circle{Center: geometry.Point{X: 50, Y: 50}, Radius: 200})
	if err := s.DeployRound(50); err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Layout().Devices() {
		if d.Round == 1 {
			if got := s.Endpoint(d.Handle).Functional().Len(); got != 0 {
				t.Fatalf("node %v validated %d neighbors under total jamming", d.Node, got)
			}
		}
	}
}

func TestKillFractionReturnsIDs(t *testing.T) {
	s, err := New(Params{Seed: 13, Threshold: 0, Nodes: 100})
	if err != nil {
		t.Fatal(err)
	}
	dead := s.KillFraction(0.25)
	if len(dead) != 25 {
		t.Errorf("killed %d, want 25", len(dead))
	}
	if s.Layout().AliveCount() != 75 {
		t.Errorf("alive = %d", s.Layout().AliveCount())
	}
}
