// Package core implements the paper's contribution: the localized neighbor
// validation protocol of Section 4. Each node is pre-loaded with a
// network-wide master key K and a threshold t; right after deployment —
// within the window where the node is trusted — it discovers its tentative
// neighbor list N(u), binds itself to that list with the commitment
// C(u) = H(K‖i‖N(u)‖u), validates each tentative neighbor v by checking
// |N(u) ∩ N(v)| ≥ t+1 against v's authenticated record, issues the relation
// commitments C(u,v) = H(K_v‖u) and evidences E(u,v) = H(K‖u‖v‖i), and then
// irreversibly erases K.
//
// The wire forms live here too (Envelope, AppendTo, DecodeEnvelope). One
// encoder appends every message type, so a sender can frame many messages
// into one buffer of its own. Receivers read the two discovery frames in
// place and decode neither. A hello's receivers need only its sender:
// HelloSender applies DecodeEnvelope's hello checks to the frame. A
// record's receiver needs three facts from R(v) — that C(v) verifies, the
// version i, and |N(u) ∩ N(v)| — and ReceiveRecordFrame takes them from
// the frame: it checks and counts the wire list in one pass against a
// nodeid.Counter of N(u) built at BeginDiscovery, hashes the wire list
// bytes to verify C(v), and keeps those three numbers in the record's
// pending slot, one per tentative neighbor. A node's per-discovery state
// is sized once.
//
// With at most t compromised nodes the protocol guarantees the 2R-safety
// property (Theorem 3); with the binding-record update extension and at
// most m updates per record it guarantees (m+1)R-safety (Theorem 4). The
// safety auditor in this package turns those guarantees into measurable
// quantities over a simulated deployment.
package core

import (
	"encoding/binary"
	"errors"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

// BindingRecord is R(u) = {i, N(u), C(u)}: a node's versioned, committed
// tentative neighbor list. The record "binds node u to the place defined by
// the set of nodes in N(u)".
//
// A record is a value over an immutable Set, so copies share the neighbor
// list: a node's own record, the copies it hands out, and the records it
// keeps from its neighbors are never cloned.
type BindingRecord struct {
	Node       nodeid.ID
	Version    uint32
	Neighbors  nodeid.Set
	Commitment crypto.Digest
}

// StorageBytes estimates the record's in-flash footprint: 4 (id) +
// 4 (version) + 4·|N(u)| + 32 (commitment).
func (r BindingRecord) StorageBytes() int { return recordStorageBytes(r.Neighbors.Len()) }

// recordStorageBytes is the footprint of a record with the given number of
// neighbors.
func recordStorageBytes(neighbors int) int { return 4 + 4 + 4*neighbors + crypto.DigestSize }

// Encode serializes the record: id(4) ‖ version(4) ‖ count(4) ‖ ids ‖
// commitment(32).
func (r BindingRecord) Encode() []byte {
	return r.appendTo(make([]byte, 0, r.wireLen()))
}

// wireLen is the length of the record's encoding.
func (r BindingRecord) wireLen() int { return 12 + 4*r.Neighbors.Len() + crypto.DigestSize }

// appendTo appends the record's encoding to b.
func (r BindingRecord) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(r.Node))
	b = binary.BigEndian.AppendUint32(b, r.Version)
	b = binary.BigEndian.AppendUint32(b, uint32(r.Neighbors.Len()))
	b = nodeid.AppendList(b, r.Neighbors)
	return append(b, r.Commitment[:]...)
}

var (
	errRecordLength = errors.New("core: binding record length does not match its neighbor count")
	errRecordList   = errors.New("core: binding record neighbor list malformed")
)

// recordListLen checks an encoded record's length against the neighbor
// count in its header and returns that count. It is the one length rule of
// DecodeBindingRecord, HelloSender and ReceiveRecordFrame.
func recordListLen(b []byte) (int, bool) {
	if len(b) < 12+crypto.DigestSize {
		return 0, false
	}
	count := int(binary.BigEndian.Uint32(b[8:12]))
	return count, len(b) == 12+4*count+crypto.DigestSize
}

// DecodeBindingRecord parses the encoding produced by Encode.
func DecodeBindingRecord(b []byte) (BindingRecord, error) {
	var r BindingRecord
	count, ok := recordListLen(b)
	if !ok {
		return r, errRecordLength
	}
	set, ok := nodeid.DecodeList(b[12 : 12+4*count])
	if !ok {
		return r, errRecordList
	}
	r.Node, _ = nodeid.FromBytes(b[0:4])
	r.Version = binary.BigEndian.Uint32(b[4:8])
	r.Neighbors = set
	copy(r.Commitment[:], b[12+4*count:])
	return r, nil
}

// RelationCommitment is C(u,v), carried from a newly deployed node u to a
// functional neighbor v.
type RelationCommitment struct {
	From   nodeid.ID
	To     nodeid.ID
	Digest crypto.Digest
}

// RelationEvidence is E(u,v) = H(K‖u‖v‖i): u's proof that it considers v a
// tentative neighbor, bound to v's record version i. Old nodes buffer
// these to justify later binding-record updates.
type RelationEvidence struct {
	From    nodeid.ID
	To      nodeid.ID
	Version uint32
	Digest  crypto.Digest
}

// UpdateRequest is an old node's plea to a newly deployed node: replace my
// binding record, justified by these evidences (Section 4.4, extension).
type UpdateRequest struct {
	Record    BindingRecord
	Evidences []RelationEvidence
}
