package crypto

import (
	"errors"
	"testing"

	"snd/internal/nodeid"
)

func newTestMaster(t *testing.T) *MasterKey {
	t.Helper()
	k, err := NewMasterKey(nil)
	if err != nil {
		t.Fatalf("NewMasterKey: %v", err)
	}
	return k
}

func TestVerificationKeyDeterministicPerNode(t *testing.T) {
	k := newTestMaster(t)
	a1, err := k.VerificationKey(1)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := k.VerificationKey(1)
	b, _ := k.VerificationKey(2)
	if a1 != a2 {
		t.Error("verification key not deterministic")
	}
	if a1 == b {
		t.Error("different nodes share a verification key")
	}
}

func TestBindingCommitmentBindsAllInputs(t *testing.T) {
	k := newTestMaster(t)
	base, err := k.BindingCommitment(1, 0, nodeid.NewSet(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Insertion order must not matter (canonical list encoding).
	same, _ := k.BindingCommitment(1, 0, nodeid.NewSet(3, 2))
	if !base.Equal(same) {
		t.Error("commitment depends on set insertion order")
	}
	// Changing any input changes the commitment.
	if c, _ := k.BindingCommitment(2, 0, nodeid.NewSet(2, 3)); c.Equal(base) {
		t.Error("commitment ignores node id")
	}
	if c, _ := k.BindingCommitment(1, 1, nodeid.NewSet(2, 3)); c.Equal(base) {
		t.Error("commitment ignores version")
	}
	if c, _ := k.BindingCommitment(1, 0, nodeid.NewSet(2, 4)); c.Equal(base) {
		t.Error("commitment ignores neighbor list")
	}
	// A different master key yields a different commitment.
	k2 := newTestMaster(t)
	if c, _ := k2.BindingCommitment(1, 0, nodeid.NewSet(2, 3)); c.Equal(base) {
		t.Error("commitment ignores master key")
	}
}

func TestRelationEvidenceDirectional(t *testing.T) {
	k := newTestMaster(t)
	uv, err := k.RelationEvidence(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	vu, _ := k.RelationEvidence(2, 1, 0)
	if uv.Equal(vu) {
		t.Error("E(u,v) must differ from E(v,u)")
	}
	v1, _ := k.RelationEvidence(1, 2, 1)
	if uv.Equal(v1) {
		t.Error("evidence ignores version")
	}
}

func TestEraseBlocksEverything(t *testing.T) {
	k := newTestMaster(t)
	k.Erase()
	if !k.Erased() {
		t.Fatal("Erased() = false after Erase")
	}
	if _, err := k.VerificationKey(1); !errors.Is(err, ErrErased) {
		t.Errorf("VerificationKey err = %v, want ErrErased", err)
	}
	if _, err := k.BindingCommitment(1, 0, nodeid.NewSet(2)); !errors.Is(err, ErrErased) {
		t.Errorf("BindingCommitment err = %v, want ErrErased", err)
	}
	if _, err := k.BindingCommitmentEncoded(1, 0, nodeid.EncodeList(nodeid.NewSet(2))); !errors.Is(err, ErrErased) {
		t.Errorf("BindingCommitmentEncoded err = %v, want ErrErased", err)
	}
	if _, err := k.RelationEvidence(1, 2, 0); !errors.Is(err, ErrErased) {
		t.Errorf("RelationEvidence err = %v, want ErrErased", err)
	}
	// Erase is idempotent.
	k.Erase()
	if !k.Erased() {
		t.Error("second Erase undid erasure")
	}
}

func TestCloneIndependentErasure(t *testing.T) {
	k := newTestMaster(t)
	c := k.Clone()
	// Clones agree before erasure.
	kv, _ := k.VerificationKey(5)
	cv, _ := c.VerificationKey(5)
	if kv != cv {
		t.Fatal("clone disagrees with original")
	}
	// Erasing one does not erase the other (separate physical copies).
	k.Erase()
	if c.Erased() {
		t.Error("erasing original erased the clone")
	}
	if _, err := c.VerificationKey(5); err != nil {
		t.Errorf("clone unusable after original erased: %v", err)
	}
	// Cloning an erased key yields an erased key.
	if e := k.Clone(); !e.Erased() {
		t.Error("clone of erased key is not erased")
	}
}

func TestRelationCommitmentVerification(t *testing.T) {
	k := newTestMaster(t)
	// v keeps K_v from initialization; a newly deployed u computes C(u,v).
	kv, err := k.VerificationKey(2)
	if err != nil {
		t.Fatal(err)
	}
	c := kv.RelationCommitment(1)
	if !kv.VerifyRelationCommitment(1, c) {
		t.Error("valid relation commitment rejected")
	}
	if kv.VerifyRelationCommitment(3, c) {
		t.Error("commitment verified for wrong sender")
	}
	// A commitment built from the wrong verification key fails.
	kw, _ := k.VerificationKey(3)
	if kv.VerifyRelationCommitment(1, kw.RelationCommitment(1)) {
		t.Error("commitment under K_w verified under K_v")
	}
}

func TestMasterKeyFromBytesCopies(t *testing.T) {
	raw := []byte("seed material for the master key")
	k := MasterKeyFromBytes(raw)
	raw[0] ^= 0xff
	k2 := MasterKeyFromBytes([]byte("seed material for the master key"))
	a, _ := k.VerificationKey(1)
	b, _ := k2.VerificationKey(1)
	if a != b {
		t.Error("MasterKeyFromBytes aliased caller's buffer")
	}
}

func BenchmarkBindingCommitment(b *testing.B) {
	k, err := NewMasterKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]nodeid.ID, 150)
	for i := range ids {
		ids[i] = nodeid.ID(i + 1)
	}
	neighbors := nodeid.NewSet(ids...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.BindingCommitment(200, 0, neighbors); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelationCommitment(b *testing.B) {
	k, err := NewMasterKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	kv, _ := k.VerificationKey(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kv.RelationCommitment(1)
	}
}

func TestBindingCommitmentAllocations(t *testing.T) {
	k := pinnedKey()
	ns := pinnedList(150)
	if got := testing.AllocsPerRun(100, func() { _, _ = k.BindingCommitment(42, 1, ns) }); got > 1 {
		t.Errorf("BindingCommitment: %v allocs, budget 1", got)
	}
	list := nodeid.EncodeList(ns)
	if got := testing.AllocsPerRun(100, func() { _, _ = k.BindingCommitmentEncoded(42, 1, list) }); got != 0 {
		t.Errorf("BindingCommitmentEncoded: %v allocs, want 0", got)
	}
}
