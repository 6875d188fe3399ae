package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"snd/internal/nodeid"
)

// Channel errors that callers match on.
var (
	// ErrBadMAC means the message failed authentication.
	ErrBadMAC = errors.New("crypto: message authentication failed")
	// ErrReplay means the message's sequence number was already accepted.
	ErrReplay = errors.New("crypto: replayed or reordered message rejected")
	// ErrTruncated means the message is too short to parse.
	ErrTruncated = errors.New("crypto: truncated message")
)

const (
	seqLen    = 8
	macLen    = sha256.Size
	sealedLen = seqLen + macLen
)

// Link is one endpoint of an encrypted, authenticated, replay-protected
// unicast channel between two nodes, as the paper assumes: "the
// communication between any two nodes is encrypted and authenticated by
// their shared key, and a sequence number is used to remove replayed
// messages."
//
// Wire format: seq(8) ‖ ciphertext ‖ hmac(32). Encryption is AES-256-CTR
// with a per-message IV derived from the direction key and sequence number;
// authentication is HMAC-SHA256 over seq‖ciphertext. Directional subkeys
// keep the two flow directions cryptographically independent.
//
// Link is not safe for concurrent use; each node owns its endpoints.
type Link struct {
	sendEnc []byte
	sendMac []byte
	recvEnc []byte
	recvMac []byte
	sendSeq uint64
	recvSeq uint64 // highest accepted sequence number
	started bool   // whether any message has been accepted yet
}

// NewLink builds the local endpoint of the channel between local and peer
// from their shared pairwise key. Both endpoints constructed from the same
// shared key interoperate.
func NewLink(shared []byte, local, peer nodeid.ID) (*Link, error) {
	if len(shared) == 0 {
		return nil, errors.New("crypto: empty shared key")
	}
	if local == peer {
		return nil, fmt.Errorf("crypto: link from %v to itself", local)
	}
	dir := func(from, to nodeid.ID, label string) []byte {
		d := hashTagged("snd/link-"+label, shared, from.Bytes(), to.Bytes())
		return d[:]
	}
	return &Link{
		sendEnc: dir(local, peer, "enc"),
		sendMac: dir(local, peer, "mac"),
		recvEnc: dir(peer, local, "enc"),
		recvMac: dir(peer, local, "mac"),
	}, nil
}

// Seal encrypts and authenticates plaintext, stamping the next send
// sequence number.
func (l *Link) Seal(plaintext []byte) ([]byte, error) {
	l.sendSeq++
	out := make([]byte, seqLen+len(plaintext), sealedLen+len(plaintext))
	binary.BigEndian.PutUint64(out[:seqLen], l.sendSeq)
	if err := xorStream(out[seqLen:], plaintext, l.sendEnc, l.sendSeq); err != nil {
		return nil, err
	}
	mac := hmac.New(sha256.New, l.sendMac)
	mac.Write(out)
	return mac.Sum(out), nil
}

// Open verifies and decrypts an incoming message. Messages must arrive
// with strictly increasing sequence numbers; replays and reorders are
// rejected with ErrReplay, forgeries with ErrBadMAC.
func (l *Link) Open(msg []byte) ([]byte, error) {
	if len(msg) < sealedLen {
		return nil, ErrTruncated
	}
	body, tag := msg[:len(msg)-macLen], msg[len(msg)-macLen:]
	mac := hmac.New(sha256.New, l.recvMac)
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), tag) {
		return nil, ErrBadMAC
	}
	seq := binary.BigEndian.Uint64(body[:seqLen])
	if l.started && seq <= l.recvSeq {
		return nil, fmt.Errorf("%w: seq %d ≤ %d", ErrReplay, seq, l.recvSeq)
	}
	plaintext := make([]byte, len(body)-seqLen)
	if err := xorStream(plaintext, body[seqLen:], l.recvEnc, seq); err != nil {
		return nil, err
	}
	l.recvSeq = seq
	l.started = true
	return plaintext, nil
}

// xorStream applies AES-256-CTR keyed by key with an IV derived from the
// sequence number, writing dst = src XOR keystream.
func xorStream(dst, src, key []byte, seq uint64) error {
	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("crypto: ctr cipher: %w", err)
	}
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], seq)
	cipher.NewCTR(block, iv[:]).XORKeyStream(dst, src)
	return nil
}
