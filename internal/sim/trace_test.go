package sim

import (
	"testing"

	"snd/internal/geometry"
)

// filter returns the ring's retained events matching the predicate.
func filter(r *Ring, keep func(Event) bool) []Event {
	var out []Event
	for _, e := range r.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// retained counts the ring's retained events of one kind.
func retained(r *Ring, k Kind) int {
	return len(filter(r, func(e Event) bool { return e.Kind == k }))
}

func TestTraceBenignRun(t *testing.T) {
	t.Parallel()
	rec := NewRing(100_000)
	s, err := New(Params{Seed: 71, Threshold: 3, Nodes: 80, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if retained(rec, KindHello) != 80 {
		t.Errorf("hellos = %d, want 80", retained(rec, KindHello))
	}
	if retained(rec, KindRecordAccepted) == 0 {
		t.Error("no records accepted")
	}
	if retained(rec, KindRecordRejected) != 0 {
		t.Errorf("benign run rejected %d records", retained(rec, KindRecordRejected))
	}
	// Every validation produced a matching accepted commitment.
	validated := retained(rec, KindValidated)
	accepted := retained(rec, KindCommitAccepted)
	if validated == 0 || validated != accepted {
		t.Errorf("validated %d vs commitments accepted %d", validated, accepted)
	}
	// In a single simultaneous round, validation is symmetric: every
	// directed functional edge comes from the node's own validation, and
	// the incoming commitment re-adds an existing member. So edge count
	// equals validation events exactly.
	edges := s.FunctionalGraph().NumRelations()
	if edges != validated {
		t.Errorf("functional edges %d != validated %d", edges, validated)
	}
}

func TestTraceAttackedRunShowsRejections(t *testing.T) {
	t.Parallel()
	rec := NewRing(100_000)
	s, err := New(Params{Seed: 72, Threshold: 3, Nodes: 100, Range: 25, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	victim := s.Layout().ClosestToCenter().Node
	if err := s.Compromise(victim); err != nil {
		t.Fatal(err)
	}
	rep, err := s.PlantReplica(victim, geometry.Point{X: 8, Y: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ForgeFlood(rep.Handle, 60); err != nil {
		t.Fatal(err)
	}
	if retained(rec, KindMalformed) == 0 {
		t.Error("forged garbage left no malformed events")
	}
	// The flood targets operational nodes, whose commitment rejections
	// show up as commit-rejected events.
	if retained(rec, KindCommitRejected) == 0 {
		t.Error("bogus commitments left no rejection events")
	}
	// The rejection events name the compromised identity as peer.
	hits := filter(rec, func(e Event) bool {
		return e.Kind == KindCommitRejected && e.Peer == victim
	})
	if len(hits) == 0 {
		t.Error("no rejection attributed to the compromised identity")
	}
}

func TestTraceUpdateEvents(t *testing.T) {
	t.Parallel()
	rec := NewRing(200_000)
	s, err := New(Params{Seed: 73, Threshold: 4, Nodes: 200, MaxUpdates: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Two extra rounds: the first seeds evidence, the second triggers
	// update requests.
	if err := s.DeployRound(40); err != nil {
		t.Fatal(err)
	}
	if err := s.DeployRound(40); err != nil {
		t.Fatal(err)
	}
	if retained(rec, KindEvidenceBuffered) == 0 {
		t.Error("no evidence buffered")
	}
	served := retained(rec, KindUpdateServed)
	applied := retained(rec, KindUpdateApplied)
	if served == 0 {
		t.Error("no updates served across redeployment waves")
	}
	if applied > served {
		t.Errorf("applied %d > served %d", applied, served)
	}
	// Round numbers are recorded.
	late := filter(rec, func(e Event) bool { return e.Round >= 1 })
	if len(late) == 0 {
		t.Error("no events attributed to later rounds")
	}
}

// The always-on EventCounts tally must agree exactly, kind by kind, with
// what a configured Recorder observes on a seeded attacked run — both see
// the same event stream, so any drift means lost or double-counted events.
func TestEventCountsMatchRecorder(t *testing.T) {
	t.Parallel()
	rec := NewRing(1_000_000) // large enough to retain everything
	s, err := New(Params{Seed: 74, Threshold: 3, Nodes: 120, Range: 25, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	victim := s.Layout().ClosestToCenter().Node
	if err := s.Compromise(victim); err != nil {
		t.Fatal(err)
	}
	rep, err := s.PlantReplica(victim, geometry.Point{X: 5, Y: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ForgeFlood(rep.Handle, 40); err != nil {
		t.Fatal(err)
	}
	if err := s.DeployRound(30); err != nil {
		t.Fatal(err)
	}

	counts := s.EventCounts()
	if counts.Total() == 0 {
		t.Fatal("attacked run produced no events")
	}
	events := rec.Events()
	if last := events[len(events)-1].Seq; last != uint64(len(events)) {
		t.Fatalf("ring evicted events: retained %d of %d", len(events), last)
	}
	if got, want := counts.Total(), int64(len(events)); got != want {
		t.Fatalf("EventCounts total %d != recorder total %d", got, want)
	}
	for _, k := range Kinds() {
		if got, want := counts.Count(k), int64(retained(rec, k)); got != want {
			t.Errorf("kind %v: EventCounts %d != recorder %d", k, got, want)
		}
	}
	// The attacked run must surface nonzero rejection statistics through
	// the counters alone.
	if counts.Count(KindMalformed) == 0 {
		t.Error("EventCounts shows no malformed frames on an attacked run")
	}
}

// EventCounts is on even without a Recorder.
func TestEventCountsWithoutRecorder(t *testing.T) {
	t.Parallel()
	s, err := New(Params{Seed: 75, Threshold: 3, Nodes: 60})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.EventCounts().Count(KindHello); got != 60 {
		t.Errorf("hellos = %d, want 60 without a recorder", got)
	}
}
