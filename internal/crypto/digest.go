// Package crypto provides the cryptographic substrate assumed by the paper:
// the one-way hash H behind all commitments, an erasable master key K with
// the verification keys K_u = H(K‖u), binding commitments
// C(u) = H(K‖N(u)‖u), relation commitments C(u,v) = H(K_v‖u), relation
// evidence E(u,v) = H(K‖u‖v‖i), several pairwise key predistribution schemes
// (the paper assumes "every two nodes in the field can establish a pairwise
// key" via schemes like Eschenauer–Gligor or polynomial-based
// predistribution), and an authenticated, replay-protected channel.
package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// DigestSize is the size in bytes of every digest and key in this package.
const DigestSize = sha256.Size

// Digest is the output of the one-way hash H.
type Digest [DigestSize]byte

// String renders a short hex prefix of the digest for logs.
func (d Digest) String() string { return hex.EncodeToString(d[:6]) }

// Equal compares two digests in constant time, as required for commitment
// verification.
func (d Digest) Equal(e Digest) bool {
	return hmac.Equal(d[:], e[:])
}

// Hash computes H over the concatenation of parts with unambiguous
// length-prefixed framing, so that H(a‖b) can never collide with H(a'‖b')
// for a different split of the same bytes.
func Hash(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [4]byte
	for _, p := range parts {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// hashTagged is Hash with a leading domain-separation tag, so digests from
// different protocol roles (verification key, binding commitment, ...) live
// in disjoint codomains.
//
// The framing goes straight into a sha256 state that never leaves this
// function, so the compiler keeps the state and the framed parts on the
// stack and a digest allocates nothing.
func hashTagged(tag string, parts ...[]byte) Digest {
	h := sha256.New()
	var buf [64]byte
	h.Write(appendFramed(buf[:0], tag))
	for _, p := range parts {
		binary.BigEndian.PutUint32(buf[:4], uint32(len(p)))
		h.Write(buf[:4])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// appendFramed appends one framed part to b: its 4-byte big-endian
// length, then its bytes.
func appendFramed[P string | []byte](b []byte, p P) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func uint32Bytes(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

func uint64Bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}
