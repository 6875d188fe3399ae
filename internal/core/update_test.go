package core

import (
	"errors"
	"slices"
	"testing"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

// updateFixture builds an operational old node (id 1) with buffered
// evidence from fresh nodes, plus a fresh serving node still holding K.
type updateFixture struct {
	master *crypto.MasterKey
	old    *Node
	fresh  *Node
	cfg    Config
}

func newUpdateFixture(t *testing.T) *updateFixture {
	t.Helper()
	cfg := Config{Threshold: 1, MaxUpdates: 2}
	master, nodes := network(t, 4, cfg)
	runClique(t, nodes, []nodeid.ID{1, 2, 3, 4})

	old := nodes[1]
	// A fresh node 5 arrives, authenticates old records, and issues
	// evidence E(5, 1) bound to node 1's current version.
	fresh5, err := NewNode(5, master, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh5.BeginDiscovery(nodeid.NewSet(1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []nodeid.ID{1, 2, 3, 4} {
		if err := fresh5.ReceiveBindingRecord(nodes[id].Record()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := fresh5.FinishDiscovery()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Evidences {
		if ev.To == 1 {
			if err := old.ReceiveRelationEvidence(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if old.EvidenceCount() == 0 {
		t.Fatal("no evidence buffered")
	}
	// Node 6 is the newly deployed node that will serve the update.
	fresh6, err := NewNode(6, master, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh6.BeginDiscovery(nodeid.NewSet(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	return &updateFixture{master: master, old: old, fresh: fresh6, cfg: cfg}
}

func TestUpdateHappyPath(t *testing.T) {
	f := newUpdateFixture(t)
	req, err := f.old.BuildUpdateRequest()
	if err != nil {
		t.Fatal(err)
	}
	updated, err := f.fresh.ServeUpdateRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if updated.Version != 1 {
		t.Errorf("updated version = %d, want 1", updated.Version)
	}
	if !updated.Neighbors.Contains(5) {
		t.Error("evidenced neighbor 5 missing from updated record")
	}
	for _, v := range req.Record.Neighbors {
		if !updated.Neighbors.Contains(v) {
			t.Errorf("old neighbor %v dropped", v)
		}
	}
	if err := f.old.ApplyUpdate(updated); err != nil {
		t.Fatal(err)
	}
	if got := f.old.Record().Version; got != 1 {
		t.Errorf("applied version = %d", got)
	}
	if f.old.EvidenceCount() != 0 {
		t.Error("evidence not consumed by update")
	}
	// The updated record authenticates under K (another fresh node would
	// accept it during discovery).
	probe, err := NewNode(7, f.master, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.BeginDiscovery(nodeid.NewSet(1)); err != nil {
		t.Fatal(err)
	}
	if err := probe.ReceiveBindingRecord(f.old.Record()); err != nil {
		t.Errorf("updated record rejected by fresh node: %v", err)
	}
}

func TestUpdateEnablesValidationWithNewNodes(t *testing.T) {
	// Without the update, old node 1's record never contains fresh node 5,
	// capping the common-neighbor count available to later arrivals; after
	// the update, node 5 counts.
	f := newUpdateFixture(t)
	req, err := f.old.BuildUpdateRequest()
	if err != nil {
		t.Fatal(err)
	}
	updated, err := f.fresh.ServeUpdateRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.old.ApplyUpdate(updated); err != nil {
		t.Fatal(err)
	}
	if !f.old.Record().Neighbors.Contains(5) {
		t.Error("record still stale after update")
	}
}

func TestBuildUpdateRequestErrors(t *testing.T) {
	cfg := Config{Threshold: 1, MaxUpdates: 0}
	_, nodes := network(t, 4, cfg)
	runClique(t, nodes, []nodeid.ID{1, 2, 3, 4})
	// MaxUpdates = 0: budget exhausted from the start.
	if _, err := nodes[1].BuildUpdateRequest(); !errors.Is(err, ErrUpdateLimit) {
		t.Errorf("err = %v, want ErrUpdateLimit", err)
	}
	// With budget but no evidence.
	cfg2 := Config{Threshold: 1, MaxUpdates: 2}
	_, nodes2 := network(t, 4, cfg2)
	runClique(t, nodes2, []nodeid.ID{1, 2, 3, 4})
	if _, err := nodes2[1].BuildUpdateRequest(); err == nil {
		t.Error("update request built with no evidence")
	}
}

func TestServeUpdateRejectsForgedRecord(t *testing.T) {
	f := newUpdateFixture(t)
	req, err := f.old.BuildUpdateRequest()
	if err != nil {
		t.Fatal(err)
	}
	req.Record.Neighbors = req.Record.Neighbors.Union(nodeid.Set{99}) // tamper
	if _, err := f.fresh.ServeUpdateRequest(req); !errors.Is(err, ErrBadRecord) {
		t.Errorf("err = %v, want ErrBadRecord", err)
	}
}

func TestServeUpdateRejectsForgedEvidence(t *testing.T) {
	f := newUpdateFixture(t)
	req, err := f.old.BuildUpdateRequest()
	if err != nil {
		t.Fatal(err)
	}
	// Compromised node 2 fabricates evidence from a phantom node 42 — it
	// has no K, so the digest cannot verify.
	req.Evidences = append(req.Evidences, RelationEvidence{
		From: 42, To: 1, Version: 0, Digest: crypto.Hash([]byte("fake")),
	})
	if _, err := f.fresh.ServeUpdateRequest(req); !errors.Is(err, ErrBadEvidence) {
		t.Errorf("err = %v, want ErrBadEvidence", err)
	}
}

func TestServeUpdateRejectsInconsistentVersions(t *testing.T) {
	f := newUpdateFixture(t)
	req, err := f.old.BuildUpdateRequest()
	if err != nil {
		t.Fatal(err)
	}
	req.Evidences[0].Version++ // evidence no longer matches record version
	if _, err := f.fresh.ServeUpdateRequest(req); !errors.Is(err, ErrBadEvidence) {
		t.Errorf("err = %v, want ErrBadEvidence", err)
	}
}

func TestServeUpdateEnforcesLimit(t *testing.T) {
	f := newUpdateFixture(t)
	req, err := f.old.BuildUpdateRequest()
	if err != nil {
		t.Fatal(err)
	}
	req.Record.Version = uint32(f.cfg.MaxUpdates) // at limit already
	// Recommitting is impossible for the test (no K) — but the limit check
	// fires before authentication.
	if _, err := f.fresh.ServeUpdateRequest(req); !errors.Is(err, ErrUpdateLimit) {
		t.Errorf("err = %v, want ErrUpdateLimit", err)
	}
}

func TestApplyUpdateValidation(t *testing.T) {
	f := newUpdateFixture(t)
	req, err := f.old.BuildUpdateRequest()
	if err != nil {
		t.Fatal(err)
	}
	updated, err := f.fresh.ServeUpdateRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong node.
	bad := updated
	bad.Node = 9
	if err := f.old.ApplyUpdate(bad); err == nil {
		t.Error("update for another node applied")
	}
	// Wrong version.
	bad2 := updated
	bad2.Version = 5
	if err := f.old.ApplyUpdate(bad2); err == nil {
		t.Error("version-skipping update applied")
	}
	// Dropping a neighbor that was in the old record must be rejected
	// (dropping only the newly evidenced node would pass the superset
	// check, so pick one from the pre-update record).
	bad3 := updated
	bad3.Neighbors = updated.Neighbors.Diff(f.old.Record().Neighbors[:1])
	if err := f.old.ApplyUpdate(bad3); err == nil {
		t.Error("neighbor-dropping update applied")
	}
	// Genuine one still applies.
	if err := f.old.ApplyUpdate(updated); err != nil {
		t.Errorf("genuine update rejected: %v", err)
	}
}

func TestEvidenceRejections(t *testing.T) {
	cfg := Config{Threshold: 1, MaxUpdates: 2}
	_, nodes := network(t, 4, cfg)
	runClique(t, nodes, []nodeid.ID{1, 2, 3, 4})
	n := nodes[1]
	if err := n.ReceiveRelationEvidence(RelationEvidence{From: 9, To: 2, Version: 0}); !errors.Is(err, ErrBadEvidence) {
		t.Errorf("misaddressed evidence err = %v", err)
	}
	if err := n.ReceiveRelationEvidence(RelationEvidence{From: 9, To: 1, Version: 3}); !errors.Is(err, ErrBadEvidence) {
		t.Errorf("wrong-version evidence err = %v", err)
	}
	if n.EvidenceCount() != 0 {
		t.Fatalf("rejected evidence buffered: %d", n.EvidenceCount())
	}

	// Accepted evidence arrives out of issuer order, and issuer 7 repeats:
	// its latest evidence replaces the earlier one, and the request lists
	// one evidence per issuer in ascending issuer order.
	for i, from := range []nodeid.ID{9, 7, 8, 7} {
		ev := RelationEvidence{From: from, To: 1, Version: 0, Digest: crypto.Hash([]byte{byte(i)})}
		if err := n.ReceiveRelationEvidence(ev); err != nil {
			t.Fatal(err)
		}
	}
	if n.EvidenceCount() != 3 {
		t.Fatalf("EvidenceCount = %d, want 3", n.EvidenceCount())
	}
	req, err := n.BuildUpdateRequest()
	if err != nil {
		t.Fatal(err)
	}
	var from []nodeid.ID
	for _, ev := range req.Evidences {
		from = append(from, ev.From)
	}
	if !slices.Equal(from, []nodeid.ID{7, 8, 9}) {
		t.Errorf("request issuers = %v, want [7 8 9]", from)
	}
	if req.Evidences[0].Digest != crypto.Hash([]byte{3}) {
		t.Error("repeated issuer 7: the earlier evidence was kept")
	}
	// The request holds a copy: editing it leaves the buffer alone.
	req.Evidences[0].Version = 5
	if again, _ := n.BuildUpdateRequest(); again.Evidences[0].Version != 0 {
		t.Error("update request shares the node's evidence buffer")
	}
}
