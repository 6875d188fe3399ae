package crypto

import (
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("hello"), []byte("world"))
	b := Hash([]byte("hello"), []byte("world"))
	if !a.Equal(b) {
		t.Error("same inputs hashed differently")
	}
}

func TestHashFramingPreventsSplicing(t *testing.T) {
	// H(a‖b) must differ from H(a'‖b') when the concatenations are equal
	// but the splits differ — the classic ambiguity a naive H(a||b) has.
	a := Hash([]byte("ab"), []byte("c"))
	b := Hash([]byte("a"), []byte("bc"))
	if a.Equal(b) {
		t.Error("length framing failed: different splits collide")
	}
	// Also differs from the single-part hash of the concatenation.
	c := Hash([]byte("abc"))
	if a.Equal(c) || b.Equal(c) {
		t.Error("part count not bound into hash")
	}
}

func TestHashPropertyDistinctInputs(t *testing.T) {
	f := func(x, y []byte) bool {
		if string(x) == string(y) {
			return true
		}
		return !Hash(x).Equal(Hash(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaggedDomainsDisjoint(t *testing.T) {
	in := []byte("same input")
	a := hashTagged("role-a", in)
	b := hashTagged("role-b", in)
	if a.Equal(b) {
		t.Error("different tags produced equal digests")
	}
}

func TestDigestStringShort(t *testing.T) {
	d := Hash([]byte("x"))
	if len(d.String()) != 12 {
		t.Errorf("String() = %q, want 12 hex chars", d.String())
	}
}
