package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

// Property-based tests over the protocol's core invariants, driven by
// testing/quick. Each property is phrased over randomly generated
// neighborhoods and thresholds.

// TestPropertyValidationRule: over random neighbor lists, FinishDiscovery
// accepts exactly the peers with |N(u) ∩ N(v)| ≥ t+1.
func TestPropertyValidationRule(t *testing.T) {
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, rawThreshold uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		threshold := int(rawThreshold % 8)
		cfg := Config{Threshold: threshold}

		// Node u with up to 12 tentative neighbors, each with its own
		// random neighbor list drawn from a small universe.
		u, err := NewNode(100, master, cfg)
		if err != nil {
			return false
		}
		peerCount := 1 + rng.Intn(12)
		tentative := idRange(1, nodeid.ID(peerCount))
		if err := u.BeginDiscovery(tentative); err != nil {
			return false
		}
		var wantFunctional nodeid.Set
		for _, v := range tentative {
			peer, err := NewNode(v, master, cfg)
			if err != nil {
				return false
			}
			peerNeighbors := []nodeid.ID{100}
			for i := 0; i < rng.Intn(14); i++ {
				peerNeighbors = append(peerNeighbors, nodeid.ID(rng.Intn(20)+1))
			}
			if err := peer.BeginDiscovery(nodeid.NewSet(peerNeighbors...)); err != nil {
				return false
			}
			rec := peer.Record()
			if err := u.ReceiveBindingRecord(rec); err != nil {
				return false
			}
			if u.Record().Neighbors.IntersectLen(rec.Neighbors) >= threshold+1 {
				wantFunctional = append(wantFunctional, v)
			}
		}
		res, err := u.FinishDiscovery()
		if err != nil {
			return false
		}
		if !slices.Equal(u.Functional(), wantFunctional) {
			return false
		}
		// One commitment per functional neighbor, one evidence per
		// authenticated tentative neighbor.
		return len(res.Commitments) == wantFunctional.Len() &&
			len(res.Evidences) == peerCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTamperedRecordsNeverVerify: any single-field mutation of a
// genuine binding record fails authentication.
func TestPropertyTamperedRecordsNeverVerify(t *testing.T) {
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, mutation uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Threshold: 2, MaxUpdates: 3}
		peer, err := NewNode(2, master, cfg)
		if err != nil {
			return false
		}
		neighbors := []nodeid.ID{1}
		for i := 0; i < rng.Intn(10); i++ {
			neighbors = append(neighbors, nodeid.ID(rng.Intn(30)+3))
		}
		if err := peer.BeginDiscovery(nodeid.NewSet(neighbors...)); err != nil {
			return false
		}
		rec := peer.Record()
		// Mutate one field.
		switch mutation % 4 {
		case 0:
			rec.Neighbors = rec.Neighbors.Union(nodeid.Set{nodeid.ID(rng.Intn(100) + 200)})
		case 1:
			if rec.Neighbors.Len() == 0 {
				return true
			}
			rec.Neighbors = rec.Neighbors[1:]
		case 2:
			rec.Version++
		case 3:
			rec.Commitment[rng.Intn(len(rec.Commitment))] ^= 1 << (mutation % 8)
		}

		u, err := NewNode(1, master, cfg)
		if err != nil {
			return false
		}
		if err := u.BeginDiscovery(nodeid.NewSet(2)); err != nil {
			return false
		}
		return u.ReceiveBindingRecord(rec) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCommitmentForgeryFails: random digests never verify as
// relation commitments, for any sender/receiver pair.
func TestPropertyCommitmentForgeryFails(t *testing.T) {
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(7, master, Config{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.BeginDiscovery(nodeid.NewSet(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := node.FinishDiscovery(); err != nil {
		t.Fatal(err)
	}
	f := func(from uint32, digest [32]byte) bool {
		if from == 0 {
			return true
		}
		c := RelationCommitment{From: nodeid.ID(from), To: 7, Digest: crypto.Digest(digest)}
		before := node.Functional().Len()
		err := node.ReceiveRelationCommitment(c)
		// A random digest matches H(K_7‖from) with probability 2^-256.
		return err != nil && node.Functional().Len() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEnvelopeRoundTrip: arbitrary well-formed envelopes survive
// encode/decode byte-for-byte in meaning.
func TestPropertyEnvelopeRoundTrip(t *testing.T) {
	f := func(seed int64, kind uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		randSet := func() nodeid.Set {
			var ids []nodeid.ID
			for i := 0; i < rng.Intn(20); i++ {
				ids = append(ids, nodeid.ID(rng.Intn(1000)+1))
			}
			return nodeid.NewSet(ids...)
		}
		randDigest := func() crypto.Digest {
			var d crypto.Digest
			rng.Read(d[:])
			return d
		}
		var e Envelope
		switch kind % 4 {
		case 0:
			e = Envelope{Type: MsgHello, Record: BindingRecord{
				Node: nodeid.ID(rng.Intn(100) + 1), Version: rng.Uint32(),
				Neighbors: randSet(), Commitment: randDigest(),
			}}
		case 1:
			e = Envelope{Type: MsgCommitment, Commitment: RelationCommitment{
				From: nodeid.ID(rng.Intn(100) + 1), To: nodeid.ID(rng.Intn(100) + 1),
				Digest: randDigest(),
			}}
		case 2:
			e = Envelope{Type: MsgEvidence, Evidence: RelationEvidence{
				From: nodeid.ID(rng.Intn(100) + 1), To: nodeid.ID(rng.Intn(100) + 1),
				Version: rng.Uint32(), Digest: randDigest(),
			}}
		case 3:
			req := UpdateRequest{Record: BindingRecord{
				Node: nodeid.ID(rng.Intn(100) + 1), Neighbors: randSet(),
				Commitment: randDigest(),
			}}
			for i := 0; i < rng.Intn(5); i++ {
				req.Evidences = append(req.Evidences, RelationEvidence{
					From: nodeid.ID(rng.Intn(100) + 1), To: req.Record.Node,
					Digest: randDigest(),
				})
			}
			e = Envelope{Type: MsgUpdateRequest, Update: req}
		}
		b, err := e.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeEnvelope(b)
		if err != nil || got.Type != e.Type {
			return false
		}
		switch e.Type {
		case MsgHello:
			return got.Record.Node == e.Record.Node &&
				got.Record.Version == e.Record.Version &&
				slices.Equal(got.Record.Neighbors, e.Record.Neighbors) &&
				got.Record.Commitment.Equal(e.Record.Commitment)
		case MsgCommitment:
			return got.Commitment == e.Commitment
		case MsgEvidence:
			return got.Evidence == e.Evidence
		case MsgUpdateRequest:
			if len(got.Update.Evidences) != len(e.Update.Evidences) {
				return false
			}
			for i := range got.Update.Evidences {
				if got.Update.Evidences[i] != e.Update.Evidences[i] {
					return false
				}
			}
			return slices.Equal(got.Update.Record.Neighbors, e.Update.Record.Neighbors)
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyUpdateMonotonicity: served updates always increment the
// version by one and never shrink the neighbor set.
func TestPropertyUpdateMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		master, err := crypto.NewMasterKey(nil)
		if err != nil {
			return false
		}
		cfg := Config{Threshold: 0, MaxUpdates: 4}
		// Old node 1 with a random neighborhood; fresh node 50 issuing
		// evidence; fresh node 51 serving the update.
		old, err := NewNode(1, master, cfg)
		if err != nil {
			return false
		}
		var neighbors []nodeid.ID
		for i := 0; i < 1+rng.Intn(8); i++ {
			neighbors = append(neighbors, nodeid.ID(rng.Intn(20)+2))
		}
		if err := old.BeginDiscovery(nodeid.NewSet(neighbors...)); err != nil {
			return false
		}
		if _, err := old.FinishDiscovery(); err != nil {
			return false
		}
		issuer, err := NewNode(50, master, cfg)
		if err != nil {
			return false
		}
		if err := issuer.BeginDiscovery(nodeid.NewSet(1)); err != nil {
			return false
		}
		if err := issuer.ReceiveBindingRecord(old.Record()); err != nil {
			return false
		}
		res, err := issuer.FinishDiscovery()
		if err != nil || len(res.Evidences) != 1 {
			return false
		}
		if err := old.ReceiveRelationEvidence(res.Evidences[0]); err != nil {
			return false
		}
		req, err := old.BuildUpdateRequest()
		if err != nil {
			return false
		}
		server, err := NewNode(51, master, cfg)
		if err != nil {
			return false
		}
		if err := server.BeginDiscovery(nodeid.NewSet(1)); err != nil {
			return false
		}
		updated, err := server.ServeUpdateRequest(req)
		if err != nil {
			return false
		}
		if updated.Version != req.Record.Version+1 {
			return false
		}
		for _, v := range req.Record.Neighbors {
			if !updated.Neighbors.Contains(v) {
				return false
			}
		}
		return updated.Neighbors.Contains(50)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
