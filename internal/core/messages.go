package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

// MsgType discriminates protocol messages on the wire.
type MsgType byte

// Protocol message types.
const (
	// MsgHello announces a newly deployed node and carries its binding
	// record, soliciting neighbors' records in return.
	MsgHello MsgType = iota + 1
	// MsgRecord carries a binding record in response to a hello.
	MsgRecord
	// MsgCommitment carries a relation commitment C(u,v).
	MsgCommitment
	// MsgEvidence carries a relation evidence E(u,v).
	MsgEvidence
	// MsgUpdateRequest carries an old node's binding-record update request.
	MsgUpdateRequest
	// MsgUpdateReply carries the re-issued binding record.
	MsgUpdateReply
)

// ErrMalformed is returned when a message fails to decode.
var ErrMalformed = errors.New("core: malformed message")

// Envelope is a decoded protocol message. Exactly the fields implied by
// Type are meaningful.
type Envelope struct {
	Type       MsgType
	Record     BindingRecord      // MsgHello, MsgRecord, MsgUpdateReply
	Commitment RelationCommitment // MsgCommitment
	Evidence   RelationEvidence   // MsgEvidence
	Update     UpdateRequest      // MsgUpdateRequest
}

// Encode serializes the envelope for transmission into one buffer sized
// up front.
func (e Envelope) Encode() ([]byte, error) {
	switch e.Type {
	case MsgHello, MsgRecord, MsgUpdateReply:
		out := make([]byte, 0, 1+e.Record.wireLen())
		return e.Record.appendTo(append(out, byte(e.Type))), nil
	case MsgCommitment:
		out := make([]byte, 0, 1+8+crypto.DigestSize)
		out = append(out, byte(e.Type))
		out = binary.BigEndian.AppendUint32(out, uint32(e.Commitment.From))
		out = binary.BigEndian.AppendUint32(out, uint32(e.Commitment.To))
		return append(out, e.Commitment.Digest[:]...), nil
	case MsgEvidence:
		out := make([]byte, 0, 1+evidenceWireLen)
		return appendEvidence(append(out, byte(e.Type)), e.Evidence), nil
	case MsgUpdateRequest:
		recLen := e.Update.Record.wireLen()
		out := make([]byte, 0, 1+4+recLen+4+len(e.Update.Evidences)*evidenceWireLen)
		out = append(out, byte(e.Type))
		out = binary.BigEndian.AppendUint32(out, uint32(recLen))
		out = e.Update.Record.appendTo(out)
		out = binary.BigEndian.AppendUint32(out, uint32(len(e.Update.Evidences)))
		for _, ev := range e.Update.Evidences {
			out = appendEvidence(out, ev)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("core: encode unknown message type %d", e.Type)
	}
}

const evidenceWireLen = 4 + 4 + 4 + crypto.DigestSize

func appendEvidence(b []byte, ev RelationEvidence) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(ev.From))
	b = binary.BigEndian.AppendUint32(b, uint32(ev.To))
	b = binary.BigEndian.AppendUint32(b, ev.Version)
	return append(b, ev.Digest[:]...)
}

func decodeEvidence(b []byte) (RelationEvidence, error) {
	var ev RelationEvidence
	if len(b) != evidenceWireLen {
		return ev, fmt.Errorf("%w: evidence length %d", ErrMalformed, len(b))
	}
	ev.From, _ = nodeid.FromBytes(b[0:4])
	ev.To, _ = nodeid.FromBytes(b[4:8])
	ev.Version = binary.BigEndian.Uint32(b[8:12])
	copy(ev.Digest[:], b[12:])
	return ev, nil
}

// DecodeEnvelope parses a received protocol message.
func DecodeEnvelope(b []byte) (Envelope, error) {
	var e Envelope
	if len(b) < 1 {
		return e, fmt.Errorf("%w: empty", ErrMalformed)
	}
	e.Type = MsgType(b[0])
	body := b[1:]
	switch e.Type {
	case MsgHello, MsgRecord, MsgUpdateReply:
		rec, err := DecodeBindingRecord(body)
		if err != nil {
			return e, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		e.Record = rec
		return e, nil
	case MsgCommitment:
		if len(body) != 8+crypto.DigestSize {
			return e, fmt.Errorf("%w: commitment length %d", ErrMalformed, len(body))
		}
		e.Commitment.From, _ = nodeid.FromBytes(body[0:4])
		e.Commitment.To, _ = nodeid.FromBytes(body[4:8])
		copy(e.Commitment.Digest[:], body[8:])
		return e, nil
	case MsgEvidence:
		ev, err := decodeEvidence(body)
		if err != nil {
			return e, err
		}
		e.Evidence = ev
		return e, nil
	case MsgUpdateRequest:
		if len(body) < 4 {
			return e, fmt.Errorf("%w: update request header", ErrMalformed)
		}
		recLen := int(binary.BigEndian.Uint32(body[0:4]))
		body = body[4:]
		if recLen < 0 || len(body) < recLen+4 {
			return e, fmt.Errorf("%w: update request record", ErrMalformed)
		}
		rec, err := DecodeBindingRecord(body[:recLen])
		if err != nil {
			return e, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		e.Update.Record = rec
		body = body[recLen:]
		count := int(binary.BigEndian.Uint32(body[0:4]))
		body = body[4:]
		if len(body) != count*evidenceWireLen {
			return e, fmt.Errorf("%w: update request evidences", ErrMalformed)
		}
		for i := 0; i < count; i++ {
			ev, err := decodeEvidence(body[i*evidenceWireLen : (i+1)*evidenceWireLen])
			if err != nil {
				return e, err
			}
			e.Update.Evidences = append(e.Update.Evidences, ev)
		}
		return e, nil
	default:
		return e, fmt.Errorf("%w: unknown type %d", ErrMalformed, e.Type)
	}
}
