package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

// Native fuzz targets for the wire decoders: arbitrary bytes must never
// panic, and anything that decodes must re-encode to the same bytes
// (records) or to something that decodes again (envelopes). `go test` runs the seed corpus; `go test -fuzz=Fuzz...` explores
// further.

func FuzzDecodeBindingRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 44))
	f.Add(BindingRecord{Node: 3, Version: 1}.Encode())
	rec := sampleRecord()
	f.Add(rec.Encode())
	corrupted := rec.Encode()
	corrupted[9] ^= 0xff
	f.Add(corrupted)
	// Two neighbors, both ID 5: a non-canonical list that must not decode.
	dup := binary.BigEndian.AppendUint32(nil, 3)
	dup = binary.BigEndian.AppendUint32(dup, 0)
	dup = binary.BigEndian.AppendUint32(dup, 2)
	dup = binary.BigEndian.AppendUint32(dup, 5)
	dup = binary.BigEndian.AppendUint32(dup, 5)
	f.Add(append(dup, make([]byte, crypto.DigestSize)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeBindingRecord(data)
		if err != nil {
			return
		}
		// Only canonical encodings decode, so the round trip is exact.
		if enc := got.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("decoded %x re-encodes as %x", data, enc)
		}
	})
}

func FuzzDecodeEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(MsgHello)})
	for _, typ := range []MsgType{MsgHello, MsgRecord, MsgUpdateReply} {
		if b, err := (Envelope{Type: typ, Record: sampleRecord()}).Encode(); err == nil {
			f.Add(b)
		}
	}
	if b, err := (Envelope{Type: MsgCommitment, Commitment: RelationCommitment{From: 1, To: 2}}).Encode(); err == nil {
		f.Add(b)
	}
	if b, err := (Envelope{Type: MsgUpdateRequest, Update: UpdateRequest{Record: sampleRecord()}}).Encode(); err == nil {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode.
		b, err := env.Encode()
		if err != nil {
			t.Fatalf("decoded envelope failed to encode: %v", err)
		}
		if _, err := DecodeEnvelope(b); err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
	})
}

// helloFrame frames a hello from id by hand, so seeds can carry lists
// that Encode would never produce.
func helloFrame(id nodeid.ID, count uint32, ids ...uint32) []byte {
	b := []byte{byte(MsgHello)}
	b = binary.BigEndian.AppendUint32(b, uint32(id))
	b = binary.BigEndian.AppendUint32(b, 0)
	b = binary.BigEndian.AppendUint32(b, count)
	for _, v := range ids {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return append(b, make([]byte, crypto.DigestSize)...)
}

// FuzzHelloSender: the in-place hello check accepts exactly the frames
// DecodeEnvelope decodes as a MsgHello, and names the same sender.
func FuzzHelloSender(f *testing.F) {
	valid := helloFrame(7, 3, 1, 2, 9)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                          // truncated
	f.Add(helloFrame(7, 4, 1, 2, 9))                     // count/length mismatch
	f.Add(helloFrame(7, 3, 9, 2, 1))                     // descending
	f.Add(helloFrame(7, 3, 1, 2, 2))                     // duplicate
	f.Add(append([]byte{byte(MsgRecord)}, valid[1:]...)) // not a hello
	f.Fuzz(func(t *testing.T, data []byte) {
		from, err := HelloSender(data)
		env, decErr := DecodeEnvelope(data)
		isHello := decErr == nil && env.Type == MsgHello
		if (err == nil) != isHello {
			t.Fatalf("HelloSender err %v, DecodeEnvelope type %v err %v", err, env.Type, decErr)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("error %v does not wrap ErrMalformed", err)
			}
			return
		}
		if from != env.Record.Node {
			t.Fatalf("HelloSender = %v, DecodeEnvelope sender %v", from, env.Record.Node)
		}
	})
}

// recordFixture is the fixed node FuzzRecordFrame and the record-path
// tests validate against: node 1 under a fixed K, once with a dense N(u)
// (a bitmap counter) and once with a sparse one (a merging counter), plus
// the same node before and after discovery.
type recordFixture struct {
	master                   *crypto.MasterKey
	dense, sparse            *Node // discovering
	initialized, operational *Node
}

var recordFixtureCfg = Config{Threshold: 2, MaxUpdates: 2}

func newRecordFixture(t testing.TB) *recordFixture {
	t.Helper()
	master, err := crypto.NewMasterKey(bytes.NewReader(bytes.Repeat([]byte{0x5a}, crypto.DigestSize)))
	if err != nil {
		t.Fatal(err)
	}
	node := func(tentative nodeid.Set) *Node {
		n, err := NewNode(1, master, recordFixtureCfg)
		if err != nil {
			t.Fatal(err)
		}
		if tentative != nil {
			if err := n.BeginDiscovery(tentative); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	f := &recordFixture{
		master:      master,
		dense:       node(idRange(2, 9)),
		sparse:      node(nodeid.Set{2, 3, 5, 8, 1 << 20, 1 << 30}),
		initialized: node(nil),
		operational: node(nodeid.Set{2, 3}),
	}
	if _, err := f.operational.FinishDiscovery(); err != nil {
		t.Fatal(err)
	}
	return f
}

// frame builds a MsgRecord frame for a record of from over ids, committed
// under the fixture's K.
func (f *recordFixture) frame(t testing.TB, from nodeid.ID, version uint32, ids ...nodeid.ID) []byte {
	t.Helper()
	set := nodeid.NewSet(ids...)
	c, err := f.master.BindingCommitment(from, version, set)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Envelope{Type: MsgRecord, Record: BindingRecord{Node: from, Version: version, Neighbors: set, Commitment: c}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recordErrClass names which of the record path's error classes err is in.
func recordErrClass(err error) error {
	for _, class := range []error{ErrMalformed, ErrPhase, ErrNotTentative, ErrBadRecord} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// oracleReceive is the record rule written out on a decoded record, as it
// stood before records were validated in place: the frame must decode as a
// MsgRecord; then the node must be discovering, the sender in N(u), the
// version within the update limit and the commitment recomputed from the
// decoded Set equal to the record's. It returns the slot an accepted record
// fills, with the common count taken by Set.IntersectLen.
func oracleReceive(master *crypto.MasterKey, u *Node, frame []byte) (nodeid.ID, pendingRecord, error) {
	env, err := DecodeEnvelope(frame)
	if err != nil || env.Type != MsgRecord {
		return nodeid.None, pendingRecord{}, ErrMalformed
	}
	r := env.Record
	if u.Phase() != PhaseDiscovering {
		return r.Node, pendingRecord{}, ErrPhase
	}
	own := u.Record().Neighbors
	if !own.Contains(r.Node) {
		return r.Node, pendingRecord{}, ErrNotTentative
	}
	if int(r.Version) > u.cfg.MaxUpdates {
		return r.Node, pendingRecord{}, ErrBadRecord
	}
	if want, _ := master.BindingCommitment(r.Node, r.Version, r.Neighbors); !want.Equal(r.Commitment) {
		return r.Node, pendingRecord{}, ErrBadRecord
	}
	return r.Node, pendingRecord{
		version: r.Version,
		size:    uint32(r.StorageBytes()),
		common:  uint32(own.IntersectLen(r.Neighbors)),
	}, nil
}

// FuzzRecordFrame: ReceiveRecordFrame accepts exactly the frames that
// DecodeEnvelope decodes as a MsgRecord and ReceiveBindingRecord then
// accepts, names the same sender, fills the same slot with what the
// decoded-record oracle computes, and rejects the rest with the same error
// class — at a discovering node with a bitmap counter and with a merging
// one, and at a node before and after discovery.
func FuzzRecordFrame(f *testing.F) {
	fx := newRecordFixture(f)
	valid := fx.frame(f, 3, 0, 1, 2, 4, 5, 9, 1<<20)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 1
	descending := bytes.Clone(valid)
	copy(descending[13:17], valid[17:21])
	copy(descending[17:21], valid[13:17])
	repeated := bytes.Clone(valid)
	copy(repeated[17:21], valid[13:17])
	f.Add(valid)
	f.Add(fx.frame(f, 8, 1, 2, 3))                      // an update's version
	f.Add(valid[:len(valid)-1])                         // truncated
	f.Add(descending)                                   // list out of order
	f.Add(repeated)                                     // an ID listed twice
	f.Add(append([]byte{byte(MsgHello)}, valid[1:]...)) // wrong type
	f.Add(fx.frame(f, 3, 3, 1, 2))                      // version over the limit
	f.Add(flipped)                                      // commitment flipped
	f.Add(fx.frame(f, 42, 0, 1, 2))                     // not a tentative neighbor
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, u := range []*Node{fx.dense, fx.sparse, fx.initialized, fx.operational} {
			got, ref := u.Clone(), u.Clone()
			from, err := got.ReceiveRecordFrame(frame)
			wantFrom, wantSlot, wantErr := oracleReceive(fx.master, u, frame)
			if from != wantFrom || recordErrClass(err) != wantErr {
				t.Fatalf("%v node %v: ReceiveRecordFrame = %v, %v; oracle %v, %v", u.Phase(), u.Record().Neighbors, from, err, wantFrom, wantErr)
			}
			refErr := ErrMalformed
			if env, decErr := DecodeEnvelope(frame); decErr == nil && env.Type == MsgRecord {
				refErr = ref.ReceiveBindingRecord(env.Record)
			}
			if recordErrClass(refErr) != recordErrClass(err) {
				t.Fatalf("%v node: ReceiveRecordFrame err %v, DecodeEnvelope + ReceiveBindingRecord err %v", u.Phase(), err, refErr)
			}
			if !slices.Equal(got.pending, ref.pending) || got.HashOps() != ref.HashOps() {
				t.Fatalf("%v node: frame path left %v (%d hashes), record path %v (%d)", u.Phase(), got.pending, got.HashOps(), ref.pending, ref.HashOps())
			}
			if err != nil {
				if !slices.Equal(got.pending, u.pending) {
					t.Fatalf("%v node: rejected frame changed pending: %v", u.Phase(), got.pending)
				}
				continue
			}
			slot, _ := slices.BinarySearch(u.Record().Neighbors, from)
			if got.pending[slot] != wantSlot {
				t.Fatalf("slot of %v = %+v, oracle %+v", from, got.pending[slot], wantSlot)
			}
		}
	})
}
