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
	return e.AppendTo(make([]byte, 0, e.WireLen()))
}

// WireLen is the length of the envelope's encoding, or 0 for an unknown
// type: the room AppendTo needs to allocate nothing.
func (e Envelope) WireLen() int {
	switch e.Type {
	case MsgHello, MsgRecord, MsgUpdateReply:
		return 1 + e.Record.wireLen()
	case MsgCommitment:
		return 1 + commitmentWireLen
	case MsgEvidence:
		return 1 + evidenceWireLen
	case MsgUpdateRequest:
		return 1 + 4 + e.Update.Record.wireLen() + 4 + len(e.Update.Evidences)*evidenceWireLen
	default:
		return 0
	}
}

// AppendTo appends the envelope's encoding to b. It is the one encoder:
// Encode calls it on a buffer sized up front, and a sender framing many
// messages appends them all into one buffer of its own. It allocates
// nothing when b has room, and returns nil for an unknown type.
func (e Envelope) AppendTo(b []byte) ([]byte, error) {
	switch e.Type {
	case MsgHello, MsgRecord, MsgUpdateReply:
		return e.Record.appendTo(append(b, byte(e.Type))), nil
	case MsgCommitment:
		b = append(b, byte(e.Type))
		b = binary.BigEndian.AppendUint32(b, uint32(e.Commitment.From))
		b = binary.BigEndian.AppendUint32(b, uint32(e.Commitment.To))
		return append(b, e.Commitment.Digest[:]...), nil
	case MsgEvidence:
		return appendEvidence(append(b, byte(e.Type)), e.Evidence), nil
	case MsgUpdateRequest:
		b = append(b, byte(e.Type))
		b = binary.BigEndian.AppendUint32(b, uint32(e.Update.Record.wireLen()))
		b = e.Update.Record.appendTo(b)
		b = binary.BigEndian.AppendUint32(b, uint32(len(e.Update.Evidences)))
		for _, ev := range e.Update.Evidences {
			b = appendEvidence(b, ev)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("core: encode unknown message type %d", e.Type)
	}
}

const commitmentWireLen = 4 + 4 + crypto.DigestSize

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

// Rejections shared by the readers that validate a frame in place
// (HelloSender and Node.ReceiveRecordFrame), built once so that a
// rejection allocates nothing.
var (
	errFrameLength = fmt.Errorf("%w: %w", ErrMalformed, errRecordLength)
	errFrameList   = fmt.Errorf("%w: %w", ErrMalformed, errRecordList)
)

// HelloSender validates a MsgHello frame in place and returns its sender.
// It applies exactly the checks DecodeEnvelope applies to a hello — the
// frame type, the record's length against its neighbor count, and a
// canonical neighbor list — but decodes nothing and allocates nothing on
// success: a hello's receivers answer with their own record, so the sender
// is all they read. Its errors wrap ErrMalformed.
func HelloSender(frame []byte) (nodeid.ID, error) {
	if len(frame) < 1 || MsgType(frame[0]) != MsgHello {
		return nodeid.None, fmt.Errorf("%w: not a hello", ErrMalformed)
	}
	body := frame[1:]
	count, ok := recordListLen(body)
	if !ok {
		return nodeid.None, errFrameLength
	}
	if !nodeid.ValidList(body[12 : 12+4*count]) {
		return nodeid.None, errFrameList
	}
	id, _ := nodeid.FromBytes(body[0:4])
	return id, nil
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
		if len(body) != commitmentWireLen {
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
