package crypto

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"snd/internal/nodeid"
)

// ErrErased is returned when an operation needs the master key after it has
// been deleted. The protocol's security hinges on this: once a node erases
// K, even full compromise of the node yields nothing that can forge new
// binding records or relation evidence.
var ErrErased = errors.New("crypto: master key has been erased")

// Domain-separation tags for the protocol's hash roles.
const (
	tagVerificationKey   = "snd/vkey"    // K_u = H(K‖u)
	tagBindingCommitment = "snd/binding" // C(u) = H(K‖i‖N(u)‖u)
	tagRelationCommit    = "snd/relcom"  // C(u,v) = H(K_v‖u)
	tagRelationEvidence  = "snd/relev"   // E(u,v) = H(K‖u‖v‖i)
)

// MasterKey is the network-wide random key K pre-distributed to every node
// before deployment (Section 4.1, Initialization). It is designed around
// the paper's erasure requirement: Erase zeroizes the key material, and
// every subsequent use fails with ErrErased.
//
// MasterKey is not safe for concurrent use; each simulated node holds its
// own copy (see Clone) exactly as each physical node holds its own flash
// copy.
type MasterKey struct {
	key    []byte
	erased bool
}

// NewMasterKey generates a fresh master key from the given entropy source,
// or crypto/rand when rng is nil.
func NewMasterKey(rng io.Reader) (*MasterKey, error) {
	if rng == nil {
		rng = rand.Reader
	}
	key := make([]byte, DigestSize)
	if _, err := io.ReadFull(rng, key); err != nil {
		return nil, fmt.Errorf("crypto: generate master key: %w", err)
	}
	return &MasterKey{key: key}, nil
}

// Clone returns an independent copy of the key, modeling the pre-deployment
// loading of K onto another node. Cloning an erased key yields an erased
// key: erasure is irreversible per the paper's assumption that deleted
// secrets cannot be recovered.
func (k *MasterKey) Clone() *MasterKey {
	if k.erased {
		return &MasterKey{erased: true}
	}
	c := make([]byte, len(k.key))
	copy(c, k.key)
	return &MasterKey{key: c}
}

// Erase zeroizes the key material. The paper suggests erase-and-rewrite
// with random values; in this in-memory model a single overwrite plus the
// erased flag captures the semantics. Erase is idempotent.
func (k *MasterKey) Erase() {
	for i := range k.key {
		k.key[i] = 0
	}
	k.key = nil
	k.erased = true
}

// Erased reports whether the key has been deleted.
func (k *MasterKey) Erased() bool { return k.erased }

// VerificationKey computes K_u = H(K‖u). A node computes its own
// verification key during initialization, before any chance of compromise,
// and keeps it after erasing K (K_u reveals nothing about K).
func (k *MasterKey) VerificationKey(u nodeid.ID) (VerificationKey, error) {
	if k.erased {
		return VerificationKey{}, ErrErased
	}
	return VerificationKey(hashTagged(tagVerificationKey, k.key, u.Bytes())), nil
}

// BindingCommitment computes C(u) = H(K‖i‖N(u)‖u) over the canonical
// encoding of the tentative neighbor list. The version number i is part of
// the commitment so that the update extension's records are distinguishable
// across versions.
func (k *MasterKey) BindingCommitment(u nodeid.ID, version uint32, neighbors nodeid.Set) (Digest, error) {
	if k.erased {
		return Digest{}, ErrErased
	}
	// The list part is exactly AppendList(nil, neighbors), streamed through
	// buf a chunk at a time instead of materialized.
	h := sha256.New()
	var buf [256]byte
	b := k.appendBindingHead(buf[:0], version, 4*len(neighbors))
	for _, id := range neighbors {
		if len(b)+4 > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.BigEndian.AppendUint32(b, uint32(id))
	}
	h.Write(b)
	h.Write(appendFramed(buf[:0], u.Bytes()))
	var d Digest
	h.Sum(d[:0])
	return d, nil
}

// BindingCommitmentEncoded is BindingCommitment over a list already in its
// canonical encoding, AppendList(nil, N(u)) — the form a record carries on
// the wire — so a receiver hashes the received bytes in one Write. It does
// not check that list is canonical; a list that is not hashes to a digest
// no Set commits to.
func (k *MasterKey) BindingCommitmentEncoded(u nodeid.ID, version uint32, list []byte) (Digest, error) {
	if k.erased {
		return Digest{}, ErrErased
	}
	h := sha256.New()
	var buf [128]byte
	h.Write(k.appendBindingHead(buf[:0], version, len(list)))
	h.Write(list)
	h.Write(appendFramed(buf[:0], u.Bytes()))
	var d Digest
	h.Sum(d[:0])
	return d, nil
}

// appendBindingHead appends to b the framing of C(u) that precedes the list
// bytes: the tag, K, the version i, and the list part's length prefix. Both
// commitment forms hash this head, then the listLen bytes of
// AppendList(nil, N(u)), then u framed, so the digest is Hash(tag, K, i,
// AppendList(nil, N(u)), u) in one place.
func (k *MasterKey) appendBindingHead(b []byte, version uint32, listLen int) []byte {
	b = appendFramed(b, tagBindingCommitment)
	b = appendFramed(b, k.key)
	b = appendFramed(b, uint32Bytes(version))
	return binary.BigEndian.AppendUint32(b, uint32(listLen))
}

// RelationEvidence computes E(u,v) = H(K‖u‖v‖i): node u's proof, issued
// while u still held K, that u considers v a tentative neighbor under v's
// binding-record version i (Section 4.4, update extension).
func (k *MasterKey) RelationEvidence(u, v nodeid.ID, version uint32) (Digest, error) {
	if k.erased {
		return Digest{}, ErrErased
	}
	return hashTagged(tagRelationEvidence, k.key, u.Bytes(), v.Bytes(), uint32Bytes(version)), nil
}

// VerificationKey is K_v = H(K‖v). Only newly deployed nodes (which still
// hold K) can compute it for an arbitrary v; node v itself retains its own
// K_v forever to verify incoming relation commitments.
type VerificationKey Digest

// RelationCommitment computes C(u,v) = H(K_v‖u), where vk is K_v and from
// is u. Producing this value proves the producer is (or was) a newly
// deployed node, since K_v is derivable only from K.
func (vk VerificationKey) RelationCommitment(from nodeid.ID) Digest {
	return hashTagged(tagRelationCommit, vk[:], from.Bytes())
}

// VerifyRelationCommitment checks C(u,v) against this verification key in
// constant time.
func (vk VerificationKey) VerifyRelationCommitment(from nodeid.ID, c Digest) bool {
	return vk.RelationCommitment(from).Equal(c)
}
