package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

var testCfg = Config{Threshold: 2, MaxUpdates: 2}

// network builds n protocol nodes sharing one master key.
func network(t *testing.T, n int, cfg Config) (*crypto.MasterKey, map[nodeid.ID]*Node) {
	t.Helper()
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make(map[nodeid.ID]*Node, n)
	for i := 1; i <= n; i++ {
		id := nodeid.ID(i)
		node, err := NewNode(id, master, cfg)
		if err != nil {
			t.Fatalf("NewNode(%v): %v", id, err)
		}
		nodes[id] = node
	}
	return master, nodes
}

// runClique drives the full protocol over a clique of the given node IDs:
// everyone is everyone's tentative neighbor.
func runClique(t *testing.T, nodes map[nodeid.ID]*Node, ids []nodeid.ID) map[nodeid.ID]*DiscoveryResult {
	t.Helper()
	all := nodeid.NewSet(ids...)
	for _, id := range ids {
		tentative := all.Diff(nodeid.Set{id})
		if err := nodes[id].BeginDiscovery(tentative); err != nil {
			t.Fatalf("BeginDiscovery(%v): %v", id, err)
		}
	}
	for _, id := range ids {
		for _, peer := range ids {
			if peer == id {
				continue
			}
			if err := nodes[id].ReceiveBindingRecord(nodes[peer].Record()); err != nil {
				t.Fatalf("ReceiveBindingRecord(%v <- %v): %v", id, peer, err)
			}
		}
	}
	results := make(map[nodeid.ID]*DiscoveryResult, len(ids))
	for _, id := range ids {
		res, err := nodes[id].FinishDiscovery()
		if err != nil {
			t.Fatalf("FinishDiscovery(%v): %v", id, err)
		}
		results[id] = res
	}
	// Deliver commitments.
	for _, res := range results {
		for _, c := range res.Commitments {
			if err := nodes[c.To].ReceiveRelationCommitment(c); err != nil {
				t.Fatalf("commitment %v->%v: %v", c.From, c.To, err)
			}
		}
	}
	return results
}

func TestNewNodeValidation(t *testing.T) {
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(nodeid.None, master, testCfg); err == nil {
		t.Error("reserved ID accepted")
	}
	if _, err := NewNode(1, nil, testCfg); err == nil {
		t.Error("nil master accepted")
	}
	erased := master.Clone()
	erased.Erase()
	if _, err := NewNode(1, erased, testCfg); err == nil {
		t.Error("erased master accepted")
	}
	if _, err := NewNode(1, master, Config{Threshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestCliqueDiscoveryValidatesEveryone(t *testing.T) {
	// 5-node clique, t = 2: every pair shares 3 common neighbors ≥ t+1.
	_, nodes := network(t, 5, testCfg)
	ids := []nodeid.ID{1, 2, 3, 4, 5}
	runClique(t, nodes, ids)
	for _, id := range ids {
		want := nodeid.NewSet(ids...).Diff(nodeid.Set{id})
		if got := nodes[id].Functional(); !slices.Equal(got, want) {
			t.Errorf("node %v functional = %v, want %v", id, got, want)
		}
		if nodes[id].HoldsMasterKey() {
			t.Errorf("node %v still holds K after discovery", id)
		}
		if nodes[id].Phase() != PhaseOperational {
			t.Errorf("node %v phase = %v", id, nodes[id].Phase())
		}
	}
}

func TestThresholdBlocksSparsePairs(t *testing.T) {
	// 4-node clique with t = 2: each pair shares exactly 2 common
	// neighbors < t+1 = 3, so nobody validates anybody.
	_, nodes := network(t, 4, testCfg)
	runClique(t, nodes, []nodeid.ID{1, 2, 3, 4})
	for id, n := range nodes {
		if got := n.Functional(); got.Len() != 0 {
			t.Errorf("node %v functional = %v, want empty", id, got)
		}
	}
}

func TestMinimumDeploymentIsThresholdPlusThree(t *testing.T) {
	// Section 4.4: |G_min| = t+3. With t = 2, a 5-clique validates and a
	// 4-clique does not — both covered above; this pins the boundary for
	// several thresholds.
	for _, threshold := range []int{0, 1, 3} {
		cfg := Config{Threshold: threshold}
		size := threshold + 3
		_, nodes := network(t, size, cfg)
		ids := make([]nodeid.ID, size)
		for i := range ids {
			ids[i] = nodeid.ID(i + 1)
		}
		runClique(t, nodes, ids)
		if got := nodes[1].Functional().Len(); got != size-1 {
			t.Errorf("t=%d: clique of %d gives %d functional, want %d", threshold, size, got, size-1)
		}
	}
}

func TestPhaseEnforcement(t *testing.T) {
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(1, master, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Operations before discovery.
	if err := n.ReceiveBindingRecord(BindingRecord{}); !errors.Is(err, ErrPhase) {
		t.Errorf("ReceiveBindingRecord err = %v", err)
	}
	if _, err := n.FinishDiscovery(); !errors.Is(err, ErrPhase) {
		t.Errorf("FinishDiscovery err = %v", err)
	}
	if err := n.ReceiveRelationCommitment(RelationCommitment{To: 1}); !errors.Is(err, ErrPhase) {
		t.Errorf("commitment before deployment err = %v", err)
	}
	// Double BeginDiscovery.
	if err := n.BeginDiscovery(nodeid.NewSet(2)); err != nil {
		t.Fatal(err)
	}
	if err := n.BeginDiscovery(nodeid.NewSet(2)); !errors.Is(err, ErrPhase) {
		t.Errorf("second BeginDiscovery err = %v", err)
	}
	// Update machinery needs operational phase.
	if _, err := n.BuildUpdateRequest(); !errors.Is(err, ErrPhase) {
		t.Errorf("BuildUpdateRequest err = %v", err)
	}
	if err := n.ApplyUpdate(BindingRecord{Node: 1, Version: 1}); !errors.Is(err, ErrPhase) {
		t.Errorf("ApplyUpdate err = %v", err)
	}
}

func TestBeginDiscoveryExcludesSelf(t *testing.T) {
	master, _ := crypto.NewMasterKey(nil)
	n, err := NewNode(1, master, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BeginDiscovery(nodeid.NewSet(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if n.Record().Neighbors.Contains(1) {
		t.Error("node listed itself as neighbor")
	}
}

func TestReceiveBindingRecordRejections(t *testing.T) {
	_, nodes := network(t, 3, testCfg)
	a, b := nodes[1], nodes[2]
	if err := a.BeginDiscovery(nodeid.NewSet(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.BeginDiscovery(nodeid.NewSet(1)); err != nil {
		t.Fatal(err)
	}
	// From a node outside N(u).
	if err := a.ReceiveBindingRecord(BindingRecord{Node: 9}); !errors.Is(err, ErrNotTentative) {
		t.Errorf("outside record err = %v", err)
	}
	// Forged commitment.
	forged := b.Record()
	forged.Neighbors = forged.Neighbors.Union(nodeid.Set{42}) // tamper with the list, keep old commitment
	if err := a.ReceiveBindingRecord(forged); !errors.Is(err, ErrBadRecord) {
		t.Errorf("forged record err = %v", err)
	}
	// Version past the update limit is distrusted outright.
	over := b.Record()
	over.Version = uint32(testCfg.MaxUpdates + 1)
	if err := a.ReceiveBindingRecord(over); !errors.Is(err, ErrBadRecord) {
		t.Errorf("over-version record err = %v", err)
	}
	// Genuine record passes.
	if err := a.ReceiveBindingRecord(b.Record()); err != nil {
		t.Errorf("genuine record rejected: %v", err)
	}
}

func TestRelationCommitmentRejections(t *testing.T) {
	_, nodes := network(t, 5, testCfg)
	runClique(t, nodes, []nodeid.ID{1, 2, 3, 4, 5})
	n := nodes[1]
	// Wrong addressee.
	if err := n.ReceiveRelationCommitment(RelationCommitment{From: 2, To: 3}); !errors.Is(err, ErrBadCommitment) {
		t.Errorf("misaddressed commitment err = %v", err)
	}
	// Forged digest: an attacker without K cannot produce C(x,1).
	forged := RelationCommitment{From: 99, To: 1, Digest: crypto.Hash([]byte("guess"))}
	if err := n.ReceiveRelationCommitment(forged); !errors.Is(err, ErrBadCommitment) {
		t.Errorf("forged commitment err = %v", err)
	}
	if n.Functional().Contains(99) {
		t.Error("forged commitment installed a functional neighbor")
	}
}

func TestOldNodeAcceptsFreshCommitment(t *testing.T) {
	// Incremental deployment: node 6 arrives after 1..5 are operational.
	master, nodes := network(t, 5, Config{Threshold: 1, MaxUpdates: 2})
	ids := []nodeid.ID{1, 2, 3, 4, 5}
	runClique(t, nodes, ids)

	fresh, err := NewNode(6, master, Config{Threshold: 1, MaxUpdates: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.BeginDiscovery(nodeid.NewSet(1, 2, 3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := fresh.ReceiveBindingRecord(nodes[id].Record()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := fresh.FinishDiscovery()
	if err != nil {
		t.Fatal(err)
	}
	// Old records list each other, not node 6, but the intersection
	// N(6) ∩ N(v) = {1..5}\{v} has 4 ≥ t+1 elements, so all validate.
	if got := fresh.Functional().Len(); got != 5 {
		t.Fatalf("fresh functional = %d, want 5", got)
	}
	for _, c := range res.Commitments {
		if err := nodes[c.To].ReceiveRelationCommitment(c); err != nil {
			t.Fatalf("old node %v rejected fresh commitment: %v", c.To, err)
		}
		if !nodes[c.To].Functional().Contains(6) {
			t.Errorf("old node %v did not add fresh node", c.To)
		}
	}
	// Evidences go to all 5 authenticated tentative neighbors.
	if len(res.Evidences) != 5 {
		t.Errorf("evidences = %d, want 5", len(res.Evidences))
	}
}

func TestReplicaCannotJoinRemoteNeighborhood(t *testing.T) {
	// The headline security property, end to end. Two distant cliques
	// {1..5} and {6..10} run discovery (t = 2). The attacker compromises
	// node 1 (after erasure) and replants a replica next to node 11, a
	// fresh node deployed in the second clique's area.
	cfg := Config{Threshold: 2, MaxUpdates: 2}
	master, nodes := network(t, 10, cfg)
	runClique(t, nodes, []nodeid.ID{1, 2, 3, 4, 5})
	runClique(t, nodes, []nodeid.ID{6, 7, 8, 9, 10})

	replica := nodes[1].Clone() // attacker's copy of node 1's state
	if replica.HoldsMasterKey() {
		t.Fatal("replica obtained a live master key")
	}

	fresh, err := NewNode(11, master, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Direct verification at 11's location sees 6..10 and the replica of 1.
	if err := fresh.BeginDiscovery(nodeid.NewSet(1, 6, 7, 8, 9, 10)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []nodeid.ID{6, 7, 8, 9, 10} {
		if err := fresh.ReceiveBindingRecord(nodes[id].Record()); err != nil {
			t.Fatal(err)
		}
	}
	// The replica presents node 1's genuine record — the only one it has.
	if err := fresh.ReceiveBindingRecord(replica.Record()); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.FinishDiscovery(); err != nil {
		t.Fatal(err)
	}
	if fresh.Functional().Contains(1) {
		t.Error("replica validated far from home: N(1)={2..5} shares nothing with N(11)")
	}
	if !fresh.Functional().Contains(6) {
		t.Error("genuine neighbor rejected")
	}
	// The replica also cannot forge a record with local neighbors: it has
	// no K to recompute the commitment, and a made-up commitment fails.
	forged := BindingRecord{Node: 1, Version: 0, Neighbors: nodeid.NewSet(6, 7, 8, 9, 10), Commitment: crypto.Hash([]byte("fake"))}
	fresh2, err := NewNode(12, master, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh2.BeginDiscovery(nodeid.NewSet(1, 6, 7, 8, 9, 10)); err != nil {
		t.Fatal(err)
	}
	if err := fresh2.ReceiveBindingRecord(forged); !errors.Is(err, ErrBadRecord) {
		t.Errorf("forged record err = %v, want ErrBadRecord", err)
	}
}

func TestGraceViolationBreaksScheme(t *testing.T) {
	// If the attacker compromises a node BEFORE it erases K (violating the
	// deployment assumption), it can forge arbitrary binding records —
	// Section 4.5's caveat. This test documents the boundary.
	cfg := Config{Threshold: 2, MaxUpdates: 2}
	master, nodes := network(t, 5, cfg)
	victim := nodes[1]
	if err := victim.BeginDiscovery(nodeid.NewSet(2, 3)); err != nil {
		t.Fatal(err)
	}
	stolen := victim.CompromiseMaster() // before FinishDiscovery: live K
	if stolen.Erased() {
		t.Fatal("expected live key during discovery window")
	}
	// Attacker forges a record placing node 1 in a remote neighborhood.
	forgedNeighbors := nodeid.NewSet(6, 7, 8, 9)
	c, err := stolen.BindingCommitment(1, 0, forgedNeighbors)
	if err != nil {
		t.Fatal(err)
	}
	forged := BindingRecord{Node: 1, Version: 0, Neighbors: forgedNeighbors, Commitment: c}

	fresh, err := NewNode(10, master, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.BeginDiscovery(nodeid.NewSet(1, 6, 7, 8, 9)); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ReceiveBindingRecord(forged); err != nil {
		t.Errorf("forged record with stolen K rejected: %v", err)
	}
	_ = nodes
}

func TestHashOpsCounted(t *testing.T) {
	_, nodes := network(t, 5, testCfg)
	runClique(t, nodes, []nodeid.ID{1, 2, 3, 4, 5})
	if ops := nodes[1].HashOps(); ops < 10 {
		t.Errorf("HashOps = %d, suspiciously low", ops)
	}
}

func TestStorageBytesPhases(t *testing.T) {
	master, _ := crypto.NewMasterKey(nil)
	n, err := NewNode(1, master, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BeginDiscovery(nodeid.NewSet(2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	during := n.StorageBytes()
	if _, err := n.FinishDiscovery(); err != nil {
		t.Fatal(err)
	}
	after := n.StorageBytes()
	if after >= during {
		t.Errorf("storage after discovery (%d) not below during (%d): K and pending records should be gone", after, during)
	}
}

// TestRecordFrameStorageParity drives one node through ReceiveRecordFrame
// and a reference node through ReceiveBindingRecord with the same records —
// genuine ones with small and large overlaps, one over the version limit
// and one forged. During discovery both must report the storage the
// two-phase metric charges, every accepted record in full, and
// FinishDiscovery must return the same result on both.
func TestRecordFrameStorageParity(t *testing.T) {
	fx := newRecordFixture(t)
	master := fx.master
	u, ref := fx.dense.Clone(), fx.dense.Clone()
	records := []BindingRecord{}
	add := func(from nodeid.ID, version uint32, ids ...nodeid.ID) {
		set := nodeid.NewSet(ids...)
		c, err := master.BindingCommitment(from, version, set)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, BindingRecord{Node: from, Version: version, Neighbors: set, Commitment: c})
	}
	add(2, 0, 1, 3, 4, 5, 100)                                // 3 common: valid
	add(3, 1, 1, 2)                                           // 1 common: authenticated, not valid
	add(4, 0, idRange(1, 40)...)                              // every other tentative neighbor
	add(5, uint32(recordFixtureCfg.MaxUpdates+1), 1, 2, 3, 4) // over the limit
	add(6, 0, 1, 2, 3, 4)
	records[len(records)-1].Commitment[0] ^= 1 // forged
	add(7, 2, 2, 8, 9)                         // the last version allowed

	want := u.StorageBytes()
	for _, r := range records {
		frame, err := Envelope{Type: MsgRecord, Record: r}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		_, frameErr := u.ReceiveRecordFrame(frame)
		refErr := ref.ReceiveBindingRecord(r)
		if recordErrClass(frameErr) != recordErrClass(refErr) {
			t.Fatalf("record of %v: frame path err %v, record path err %v", r.Node, frameErr, refErr)
		}
		if frameErr == nil {
			want += r.StorageBytes()
		}
		if got, gotRef := u.StorageBytes(), ref.StorageBytes(); got != want || gotRef != want {
			t.Fatalf("after record of %v: StorageBytes frame path %d, record path %d, want %d", r.Node, got, gotRef, want)
		}
	}
	res, err := u.FinishDiscovery()
	if err != nil {
		t.Fatal(err)
	}
	resRef, err := ref.FinishDiscovery()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, resRef) {
		t.Errorf("FinishDiscovery: frame path %+v, record path %+v", res, resRef)
	}
	if got := u.Functional(); !slices.Equal(got, nodeid.Set{2, 4, 7}) || !slices.Equal(got, ref.Functional()) {
		t.Errorf("functional: frame path %v, record path %v, want [2 4 7]", got, ref.Functional())
	}
	if len(res.Evidences) != 4 {
		t.Errorf("%d evidences, want one per authenticated record (4)", len(res.Evidences))
	}
	if u.StorageBytes() != ref.StorageBytes() || u.HashOps() != ref.HashOps() {
		t.Errorf("after discovery: storage %d vs %d, hashes %d vs %d", u.StorageBytes(), ref.StorageBytes(), u.HashOps(), ref.HashOps())
	}
}

func TestCloneIsDeep(t *testing.T) {
	_, nodes := network(t, 6, Config{Threshold: 0, MaxUpdates: 2})
	runClique(t, nodes, []nodeid.ID{1, 2, 3, 4, 5})
	orig := nodes[1]
	clone := orig.Clone()
	// A fresh node 6 validates node 1; its commitment reaches the clone only.
	fresh := nodes[6]
	if err := fresh.BeginDiscovery(nodeid.Set{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ReceiveBindingRecord(orig.Record()); err != nil {
		t.Fatal(err)
	}
	res, err := fresh.FinishDiscovery()
	if err != nil || len(res.Commitments) != 1 {
		t.Fatalf("fresh node commitments = %v, %v", res, err)
	}
	if err := clone.ReceiveRelationCommitment(res.Commitments[0]); err != nil {
		t.Fatal(err)
	}
	if !clone.Functional().Contains(6) || orig.Functional().Contains(6) {
		t.Errorf("functional lists: clone %v, original %v", clone.Functional(), orig.Functional())
	}
	if clone.ID() != orig.ID() || clone.Phase() != orig.Phase() {
		t.Error("clone header mismatch")
	}
	if !slices.Equal(clone.Record().Neighbors, orig.Record().Neighbors) {
		t.Error("clone record mismatch")
	}
	// Commitment delivery to the clone must not affect the original.
	if err := clone.ReceiveRelationEvidence(RelationEvidence{From: 42, To: 1, Version: 0}); err != nil {
		t.Fatal(err)
	}
	if orig.EvidenceCount() != 0 {
		t.Error("clone evidence leaked into original")
	}
}

func BenchmarkFullDiscoveryClique20(b *testing.B) {
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Threshold: 5}
	for i := 0; i < b.N; i++ {
		nodes := make(map[nodeid.ID]*Node, 20)
		all := idRange(1, 20)
		for _, id := range all {
			n, err := NewNode(id, master, cfg)
			if err != nil {
				b.Fatal(err)
			}
			nodes[id] = n
		}
		for id, n := range nodes {
			tent := all.Diff(nodeid.Set{id})
			if err := n.BeginDiscovery(tent); err != nil {
				b.Fatal(err)
			}
		}
		for id, n := range nodes {
			for peer, pn := range nodes {
				if peer != id {
					if err := n.ReceiveBindingRecord(pn.Record()); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		for _, n := range nodes {
			if _, err := n.FinishDiscovery(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestPhaseString(t *testing.T) {
	tests := []struct {
		give Phase
		want string
	}{
		{PhaseInitialized, "initialized"},
		{PhaseDiscovering, "discovering"},
		{PhaseOperational, "operational"},
		{Phase(9), "phase(9)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Phase(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}
