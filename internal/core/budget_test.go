package core

import (
	"bytes"
	"slices"
	"testing"

	"snd/internal/nodeid"
)

// TestAllocationBudgets pins the per-frame allocation cost of the record
// path: handing out a record shares it, encoding writes one buffer (none
// when the caller's has room), decoding allocates only the neighbor list,
// and validating a hello allocates nothing.
func TestAllocationBudgets(t *testing.T) {
	_, nodes := network(t, 1, testCfg)
	n := nodes[1]
	if err := n.BeginDiscovery(idRange(2, 151)); err != nil {
		t.Fatal(err)
	}
	env := Envelope{Type: MsgHello, Record: n.Record()}
	frame := n.Record().Encode()
	hello, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	room := make([]byte, 0, env.WireLen())
	budgets := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Node.Record", 0, func() { _ = n.Record() }},
		{"Envelope.Encode of a 150-ID record", 1, func() { _, _ = env.Encode() }},
		{"DecodeBindingRecord", 1, func() { _, _ = DecodeBindingRecord(frame) }},
		{"HelloSender", 0, func() { _, _ = HelloSender(hello) }},
		{"Envelope.AppendTo into a buffer with room", 0, func() { _, _ = env.AppendTo(room[:0]) }},
	}
	for _, b := range budgets {
		if got := testing.AllocsPerRun(100, b.fn); got > b.max {
			t.Errorf("%s: %v allocs, budget %v", b.name, got, b.max)
		}
	}
}

// TestReceiveRecordFrameAllocatesNothing: validating a record frame in
// place allocates nothing, whether it accepts the record or rejects it in
// any of its error classes, at a node with a bitmap counter and with a
// merging one.
func TestReceiveRecordFrameAllocatesNothing(t *testing.T) {
	fx := newRecordFixture(t)
	valid := fx.frame(t, 3, 0, idRange(1, 150)...)
	forged := bytes.Clone(valid)
	forged[len(forged)-1] ^= 1
	descending := bytes.Clone(valid)
	descending[16] = 0xff
	cases := []struct {
		name  string
		node  *Node
		frame []byte
		class error
	}{
		{"accept, bitmap", fx.dense, valid, nil},
		{"accept, merge", fx.sparse, valid, nil},
		{"truncated", fx.dense, valid[:len(valid)-1], ErrMalformed},
		{"descending", fx.dense, descending, ErrMalformed},
		{"hello", fx.dense, append([]byte{byte(MsgHello)}, valid[1:]...), ErrMalformed},
		{"before discovery", fx.initialized, valid, ErrPhase},
		{"after discovery", fx.operational, valid, ErrPhase},
		{"not tentative", fx.dense, fx.frame(t, 42, 0, 1, 2), ErrNotTentative},
		{"over the version limit", fx.dense, fx.frame(t, 3, 3, 1, 2), ErrBadRecord},
		{"forged", fx.dense, forged, ErrBadRecord},
	}
	for _, c := range cases {
		var err error
		allocs := testing.AllocsPerRun(100, func() { _, err = c.node.ReceiveRecordFrame(c.frame) })
		if recordErrClass(err) != c.class {
			t.Errorf("%s: err %v, want class %v", c.name, err, c.class)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs, want 0", c.name, allocs)
		}
	}
}

// finishDiscoveryBudget is what FinishDiscovery allocates whatever the
// number of pending records: the result, its two presized slices and the
// functional list sized once.
const finishDiscoveryBudget = 4

// TestFinishDiscoveryAllocationsFlat: validation allocates per call, not
// per record — 15 and 150 pending records cost the same count.
func TestFinishDiscoveryAllocationsFlat(t *testing.T) {
	const peers = 150
	master, nodes := network(t, peers+1, testCfg)
	for id, n := range nodes {
		if err := n.BeginDiscovery(idRange(1, peers+1).Diff(nodeid.Set{id})); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(pending int) float64 {
		const runs = 20
		n, err := NewNode(1, master, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.BeginDiscovery(idRange(2, nodeid.ID(pending+1))); err != nil {
			t.Fatal(err)
		}
		for id := nodeid.ID(2); id <= nodeid.ID(pending+1); id++ {
			if err := n.ReceiveBindingRecord(nodes[id].Record()); err != nil {
				t.Fatal(err)
			}
		}
		clones := make([]*Node, runs+1)
		for i := range clones {
			clones[i] = n.Clone()
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			res, err := clones[next].FinishDiscovery()
			if err != nil || len(res.Commitments) != pending || len(res.Evidences) != pending {
				t.Fatalf("FinishDiscovery with %d records: %v", pending, err)
			}
			next++
		})
	}
	few, many := allocs(15), allocs(150)
	if few != many {
		t.Errorf("FinishDiscovery: %v allocs at 15 records, %v at 150; want the same", few, many)
	}
	if many > finishDiscoveryBudget && !raceEnabled {
		t.Errorf("FinishDiscovery: %v allocs, budget %d", many, finishDiscoveryBudget)
	}
}

// TestBeginDiscoveryCopiesTentative: the record owns its neighbor list, so
// a caller reusing the slice it built the tentative set from changes
// neither the record nor whether peers authenticate it.
func TestBeginDiscoveryCopiesTentative(t *testing.T) {
	_, nodes := network(t, 5, testCfg)
	built := []nodeid.ID{4, 3, 2}
	viaNewSet := nodeid.NewSet(built...)
	direct := nodeid.Set{1, 3, 4}
	if err := nodes[1].BeginDiscovery(viaNewSet); err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].BeginDiscovery(direct); err != nil {
		t.Fatal(err)
	}
	built[0], viaNewSet[0], direct[0] = 9, 9, 9

	if got := nodes[1].Record().Neighbors; !slices.Equal(got, nodeid.Set{2, 3, 4}) {
		t.Errorf("node 1 record follows its input: %v", got)
	}
	if got := nodes[2].Record().Neighbors; !slices.Equal(got, nodeid.Set{1, 3, 4}) {
		t.Errorf("node 2 record follows its input: %v", got)
	}
	if err := nodes[3].BeginDiscovery(nodeid.Set{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []nodeid.ID{1, 2} {
		if err := nodes[3].ReceiveBindingRecord(nodes[id].Record()); err != nil {
			t.Errorf("record of %v no longer authenticates: %v", id, err)
		}
	}
}

// TestServeUpdateLeavesRequestUntouched: the updated list is a fresh merge.
// The request's neighbor array — including spare capacity an in-place
// append would write into — is byte-for-byte what it was.
func TestServeUpdateLeavesRequestUntouched(t *testing.T) {
	f := newUpdateFixture(t)
	req, err := f.old.BuildUpdateRequest()
	if err != nil {
		t.Fatal(err)
	}
	roomy := make(nodeid.Set, len(req.Record.Neighbors), len(req.Record.Neighbors)+8)
	copy(roomy, req.Record.Neighbors)
	req.Record.Neighbors = roomy
	before := nodeid.AppendList(nil, roomy[:cap(roomy)])

	updated, err := f.fresh.ServeUpdateRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if after := nodeid.AppendList(nil, roomy[:cap(roomy)]); !bytes.Equal(after, before) {
		t.Errorf("request array changed:\n%x\n%x", before, after)
	}
	if len(updated.Neighbors) <= len(roomy) || &updated.Neighbors[0] == &roomy[0] {
		t.Errorf("updated list %v shares or fails to extend the request's %v", updated.Neighbors, roomy)
	}
}
