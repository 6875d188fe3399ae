package crypto

import (
	"encoding/hex"
	"math/rand"
	"testing"

	"snd/internal/nodeid"
)

// pinnedKey is a fixed master key, so the digests below are stable across
// runs and across rewrites of the hashing code.
func pinnedKey() *MasterKey {
	raw := make([]byte, DigestSize)
	for i := range raw {
		raw[i] = byte(i*7 + 1)
	}
	return MasterKeyFromBytes(raw)
}

// pinnedList returns n distinct IDs, built in descending order so the
// canonical (ascending) encoding is exercised.
func pinnedList(n int) nodeid.Set {
	ids := make([]nodeid.ID, n)
	for i := range ids {
		ids[i] = nodeid.ID(3*(n-i) + 1)
	}
	return nodeid.NewSet(ids...)
}

// TestCommitmentDigestsPinned fixes the bytes of every master-key role
// digest. Binding records and relation commitments cross the wire and sit
// in experiment goldens, so any change to the framing — tag, length
// prefixes, list encoding — must show here first.
func TestCommitmentDigestsPinned(t *testing.T) {
	k := pinnedKey()
	hexOf := func(d Digest) string { return hex.EncodeToString(d[:]) }

	vk, err := k.VerificationKey(42)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hexOf(Digest(vk)), "354d6bb9706ec1d96eac6f79197bafcf78e6bb8cd3757b3783d25ffdcf419ab6"; got != want {
		t.Errorf("VerificationKey(42) = %s, want %s", got, want)
	}
	if got, want := hexOf(vk.RelationCommitment(5)), "ff9bac19bc8620a7c02e1cc1470cd0c22b70014c7f8e483d6647141a27ba9fb4"; got != want {
		t.Errorf("RelationCommitment(5) = %s, want %s", got, want)
	}
	ev, err := k.RelationEvidence(5, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hexOf(ev), "e458ba61a6a155c26190d54641fb42b282ce92c4b191b154501ce7b2ce9ab845"; got != want {
		t.Errorf("RelationEvidence(5, 42, 2) = %s, want %s", got, want)
	}

	bindings := []struct {
		n       int
		version uint32
		want    string
	}{
		{0, 0, "3fd57b33e076368a2854f1a59a258d35e897318f42e82eb8a76642a5685aceb3"},
		{0, 3, "5562cc1435146c5c4cf8df2edc77f0f7199fd0dbdcdea2cacedacff78ae4f510"},
		{1, 0, "1b7f069557753cd7d8ebc1e69085b3f7679fec4de5a77cb7ecc80270e9a5661c"},
		{1, 3, "8b6b5ea64678bd34cdaca1f6bc71428b901997a9c045d0c56877f4d0acc42379"},
		{150, 0, "bcf76b1d05f6c6bb8fb4715b0b4a061840155bbe51739497c8273e31b0a956b0"},
		{150, 3, "e0cb2f9de178e0b7bb99dad72575924b2bf4e740c8703e5fc3c1013e1f4d36b2"},
	}
	for _, b := range bindings {
		c, err := k.BindingCommitment(42, b.version, pinnedList(b.n))
		if err != nil {
			t.Fatal(err)
		}
		if got := hexOf(c); got != b.want {
			t.Errorf("BindingCommitment(42, v%d, %d IDs) = %s, want %s", b.version, b.n, got, b.want)
		}
		// The wire-list form hashes the same framing to the same pin.
		c, err = k.BindingCommitmentEncoded(42, b.version, nodeid.EncodeList(pinnedList(b.n)))
		if err != nil {
			t.Fatal(err)
		}
		if got := hexOf(c); got != b.want {
			t.Errorf("BindingCommitmentEncoded(42, v%d, %d IDs) = %s, want %s", b.version, b.n, got, b.want)
		}
	}
}

// TestBindingCommitmentMatchesFraming checks, on random lists, that both
// forms of BindingCommitment are exactly Hash(tag, K, i, EncodeList(N(u)), u).
func TestBindingCommitmentMatchesFraming(t *testing.T) {
	k := pinnedKey()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		ids := make([]nodeid.ID, rng.Intn(200))
		for i := range ids {
			ids[i] = nodeid.ID(rng.Uint32())
		}
		ns := nodeid.NewSet(ids...)
		u := nodeid.ID(rng.Uint32())
		version := rng.Uint32()
		got, err := k.BindingCommitment(u, version, ns)
		if err != nil {
			t.Fatal(err)
		}
		want := Hash([]byte(tagBindingCommitment), k.key, uint32Bytes(version), nodeid.EncodeList(ns), u.Bytes())
		if !got.Equal(want) {
			t.Fatalf("trial %d: BindingCommitment = %x, framed hash = %x", trial, got, want)
		}
		enc, err := k.BindingCommitmentEncoded(u, version, nodeid.EncodeList(ns))
		if err != nil {
			t.Fatal(err)
		}
		if !enc.Equal(want) {
			t.Fatalf("trial %d: BindingCommitmentEncoded = %x, framed hash = %x", trial, enc, want)
		}
	}
}
