package core

import (
	"bytes"
	"encoding/binary"
	"errors"
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
