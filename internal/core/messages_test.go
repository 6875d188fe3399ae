package core

import (
	"errors"
	"testing"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

func sampleRecord() BindingRecord {
	return BindingRecord{
		Node:       5,
		Version:    2,
		Neighbors:  nodeid.NewSet(1, 2, 3),
		Commitment: crypto.Hash([]byte("r")),
	}
}

func roundTrip(t *testing.T, e Envelope) Envelope {
	t.Helper()
	b, err := e.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeEnvelope(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Type != e.Type {
		t.Fatalf("type = %d, want %d", got.Type, e.Type)
	}
	return got
}

func TestEnvelopeRecordTypesRoundTrip(t *testing.T) {
	for _, typ := range []MsgType{MsgHello, MsgRecord, MsgUpdateReply} {
		got := roundTrip(t, Envelope{Type: typ, Record: sampleRecord()})
		if got.Record.Node != 5 || got.Record.Version != 2 {
			t.Errorf("type %d: record header %+v", typ, got.Record)
		}
		if !got.Record.Neighbors.Equal(nodeid.NewSet(1, 2, 3)) {
			t.Errorf("type %d: neighbors %v", typ, got.Record.Neighbors)
		}
	}
}

func TestEnvelopeCommitmentRoundTrip(t *testing.T) {
	c := RelationCommitment{From: 9, To: 4, Digest: crypto.Hash([]byte("c"))}
	got := roundTrip(t, Envelope{Type: MsgCommitment, Commitment: c})
	if got.Commitment != c {
		t.Errorf("commitment = %+v", got.Commitment)
	}
}

func TestEnvelopeEvidenceRoundTrip(t *testing.T) {
	ev := RelationEvidence{From: 7, To: 8, Version: 1, Digest: crypto.Hash([]byte("e"))}
	got := roundTrip(t, Envelope{Type: MsgEvidence, Evidence: ev})
	if got.Evidence != ev {
		t.Errorf("evidence = %+v", got.Evidence)
	}
}

func TestEnvelopeUpdateRequestRoundTrip(t *testing.T) {
	req := UpdateRequest{
		Record: sampleRecord(),
		Evidences: []RelationEvidence{
			{From: 10, To: 5, Version: 2, Digest: crypto.Hash([]byte("1"))},
			{From: 11, To: 5, Version: 2, Digest: crypto.Hash([]byte("2"))},
		},
	}
	got := roundTrip(t, Envelope{Type: MsgUpdateRequest, Update: req})
	if len(got.Update.Evidences) != 2 {
		t.Fatalf("evidences = %d", len(got.Update.Evidences))
	}
	if got.Update.Evidences[1] != req.Evidences[1] {
		t.Errorf("evidence[1] = %+v", got.Update.Evidences[1])
	}
	if !got.Update.Record.Neighbors.Equal(req.Record.Neighbors) {
		t.Error("record neighbors mismatch")
	}
	// Empty evidence list also round-trips.
	got2 := roundTrip(t, Envelope{Type: MsgUpdateRequest, Update: UpdateRequest{Record: sampleRecord()}})
	if len(got2.Update.Evidences) != 0 {
		t.Errorf("empty evidences decoded as %d", len(got2.Update.Evidences))
	}
}

func TestEncodeUnknownType(t *testing.T) {
	if _, err := (Envelope{Type: 0}).Encode(); err == nil {
		t.Error("unknown type encoded")
	}
}

func TestDecodeEnvelopeGarbage(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{"empty", nil},
		{"unknown type", []byte{0xff, 1, 2}},
		{"hello truncated", []byte{byte(MsgHello), 1, 2}},
		{"commitment short", append([]byte{byte(MsgCommitment)}, make([]byte, 10)...)},
		{"evidence short", append([]byte{byte(MsgEvidence)}, make([]byte, 5)...)},
		{"update header short", []byte{byte(MsgUpdateRequest), 0}},
		{"update record overrun", func() []byte {
			b := []byte{byte(MsgUpdateRequest), 0, 0, 1, 0} // recLen=65536
			return b
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeEnvelope(tt.give); !errors.Is(err, ErrMalformed) {
				t.Errorf("err = %v, want ErrMalformed", err)
			}
		})
	}
}

func TestDecodeUpdateRequestEvidenceCountMismatch(t *testing.T) {
	req := UpdateRequest{Record: sampleRecord(), Evidences: []RelationEvidence{
		{From: 1, To: 5, Version: 2, Digest: crypto.Hash([]byte("x"))},
	}}
	b, err := (Envelope{Type: MsgUpdateRequest, Update: req}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(b[:len(b)-4]); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated evidences err = %v", err)
	}
}

func BenchmarkEnvelopeHelloRoundTrip(b *testing.B) {
	e := Envelope{Type: MsgHello, Record: BindingRecord{
		Node: 200, Neighbors: idRange(1, 150), Commitment: crypto.Hash([]byte("x")),
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := e.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeEnvelope(buf); err != nil {
			b.Fatal(err)
		}
	}
}
