package crypto

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func newLinkPair(t *testing.T) (*Link, *Link) {
	t.Helper()
	shared := []byte("pairwise key between n1 and n2")
	a, err := NewLink(shared, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLink(shared, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestLinkRoundTrip(t *testing.T) {
	a, b := newLinkPair(t)
	msg := []byte("binding record payload")
	sealed, err := a.Seal(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("round trip = %q, want %q", got, msg)
	}
}

func TestLinkRoundTripProperty(t *testing.T) {
	shared := []byte("k")
	f := func(msg []byte) bool {
		a, err := NewLink(shared, 1, 2)
		if err != nil {
			return false
		}
		b, err := NewLink(shared, 2, 1)
		if err != nil {
			return false
		}
		sealed, err := a.Seal(msg)
		if err != nil {
			return false
		}
		got, err := b.Open(sealed)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkBidirectional(t *testing.T) {
	a, b := newLinkPair(t)
	s1, _ := a.Seal([]byte("from a"))
	s2, _ := b.Seal([]byte("from b"))
	if got, err := b.Open(s1); err != nil || string(got) != "from a" {
		t.Errorf("b.Open = %q, %v", got, err)
	}
	if got, err := a.Open(s2); err != nil || string(got) != "from b" {
		t.Errorf("a.Open = %q, %v", got, err)
	}
}

func TestLinkRejectsReplay(t *testing.T) {
	a, b := newLinkPair(t)
	sealed, _ := a.Seal([]byte("once"))
	if _, err := b.Open(sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(sealed); !errors.Is(err, ErrReplay) {
		t.Errorf("replay err = %v, want ErrReplay", err)
	}
}

func TestLinkRejectsReorder(t *testing.T) {
	a, b := newLinkPair(t)
	s1, _ := a.Seal([]byte("one"))
	s2, _ := a.Seal([]byte("two"))
	if _, err := b.Open(s2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(s1); !errors.Is(err, ErrReplay) {
		t.Errorf("reorder err = %v, want ErrReplay", err)
	}
}

func TestLinkRejectsTampering(t *testing.T) {
	a, b := newLinkPair(t)
	sealed, _ := a.Seal([]byte("integrity"))
	for _, pos := range []int{0, seqLen, len(sealed) - 1} {
		bad := make([]byte, len(sealed))
		copy(bad, sealed)
		bad[pos] ^= 0x01
		if _, err := b.Open(bad); !errors.Is(err, ErrBadMAC) {
			t.Errorf("flip at %d: err = %v, want ErrBadMAC", pos, err)
		}
	}
}

func TestLinkRejectsTruncated(t *testing.T) {
	_, b := newLinkPair(t)
	if _, err := b.Open(make([]byte, sealedLen-1)); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestLinkRejectsWrongKey(t *testing.T) {
	a, _ := newLinkPair(t)
	eve, err := NewLink([]byte("a different pairwise key"), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sealed, _ := a.Seal([]byte("secret"))
	if _, err := eve.Open(sealed); !errors.Is(err, ErrBadMAC) {
		t.Errorf("wrong key err = %v, want ErrBadMAC", err)
	}
}

func TestLinkRejectsReflectedMessage(t *testing.T) {
	// A message from a to b fed back to a must fail: directional subkeys.
	a, _ := newLinkPair(t)
	sealed, _ := a.Seal([]byte("reflected"))
	if _, err := a.Open(sealed); !errors.Is(err, ErrBadMAC) {
		t.Errorf("reflection err = %v, want ErrBadMAC", err)
	}
}

func TestLinkCiphertextHidesPlaintext(t *testing.T) {
	a, _ := newLinkPair(t)
	msg := bytes.Repeat([]byte("A"), 64)
	sealed, _ := a.Seal(msg)
	if bytes.Contains(sealed, msg[:16]) {
		t.Error("plaintext visible in sealed message")
	}
}

func TestNewLinkValidation(t *testing.T) {
	if _, err := NewLink(nil, 1, 2); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := NewLink([]byte("k"), 1, 1); err == nil {
		t.Error("self link accepted")
	}
}

// TestLinkPeer checks that the endpoints' identities are bound into the
// directional subkeys: under the same shared key, a frame from 1 to 2 does
// not open on node 3's link from 1.
func TestLinkPeer(t *testing.T) {
	a, _ := newLinkPair(t)
	sealed, _ := a.Seal([]byte("for n2 only"))
	other, err := NewLink([]byte("pairwise key between n1 and n2"), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Open(sealed); err == nil {
		t.Error("frame for peer 2 opened on a link between 3 and 1")
	}
}

func BenchmarkLinkSealOpen(b *testing.B) {
	shared := []byte("bench key")
	a, err := NewLink(shared, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	peer, err := NewLink(shared, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed, err := a.Seal(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := peer.Open(sealed); err != nil {
			b.Fatal(err)
		}
	}
}
