package crypto

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"snd/internal/nodeid"
)

// checkSymmetry asserts the PairwiseScheme contract KeyFor(a,b)=KeyFor(b,a)
// for the supported pairs among the given IDs.
func checkSymmetry(t *testing.T, s PairwiseScheme, ids []nodeid.ID) {
	t.Helper()
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if !s.SupportsPair(a, b) {
				if _, err := s.KeyFor(a, b); err == nil {
					t.Errorf("%s: KeyFor succeeded for unsupported pair %v,%v", s.Name(), a, b)
				}
				continue
			}
			ab, err := s.KeyFor(a, b)
			if err != nil {
				t.Fatalf("%s: KeyFor(%v,%v): %v", s.Name(), a, b, err)
			}
			ba, err := s.KeyFor(b, a)
			if err != nil {
				t.Fatalf("%s: KeyFor(%v,%v): %v", s.Name(), b, a, err)
			}
			if !bytes.Equal(ab, ba) {
				t.Errorf("%s: asymmetric keys for %v,%v", s.Name(), a, b)
			}
		}
	}
}

// checkPairUniqueness asserts that distinct supported pairs derive distinct
// keys.
func checkPairUniqueness(t *testing.T, s PairwiseScheme, ids []nodeid.ID) {
	t.Helper()
	seen := make(map[string]nodeid.Pair)
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if !s.SupportsPair(a, b) {
				continue
			}
			k, err := s.KeyFor(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[string(k)]; dup {
				t.Errorf("%s: pairs %v and %v share a key", s.Name(), prev, nodeid.Pair{From: a, To: b})
			}
			seen[string(k)] = nodeid.Pair{From: a, To: b}
		}
	}
}

func TestKDFScheme(t *testing.T) {
	s := NewKDFScheme([]byte("network secret"))
	ids := []nodeid.ID{1, 2, 3, 4, 5}
	checkSymmetry(t, s, ids)
	checkPairUniqueness(t, s, ids)
	if s.SupportsPair(3, 3) {
		t.Error("self pair supported")
	}
	if _, err := s.KeyFor(3, 3); err == nil {
		t.Error("self pair key derived")
	}
}

func TestKDFSchemeCopiesSecret(t *testing.T) {
	secret := []byte("mutable")
	s := NewKDFScheme(secret)
	k1, _ := s.KeyFor(1, 2)
	secret[0] ^= 0xff
	k2, _ := s.KeyFor(1, 2)
	if !bytes.Equal(k1, k2) {
		t.Error("scheme aliased caller's secret")
	}
}

func TestEGSchemeValidation(t *testing.T) {
	tests := []struct {
		name       string
		pool, ring int
		wantErr    bool
	}{
		{"ok", 100, 10, false},
		{"zero pool", 0, 10, true},
		{"zero ring", 100, 0, true},
		{"ring exceeds pool", 10, 11, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewEGScheme(tt.pool, tt.ring, 1)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestEGSchemeSharedKeys(t *testing.T) {
	// A tiny pool with large rings guarantees overlap.
	s, err := NewEGScheme(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	ids := []nodeid.ID{1, 2, 3, 4}
	for _, id := range ids {
		s.Provision(id)
	}
	checkSymmetry(t, s, ids)
	checkPairUniqueness(t, s, ids)
}

func TestEGSchemeDisjointRings(t *testing.T) {
	// Pool 1000, ring 1: overlap is very unlikely; find a failing pair.
	s, err := NewEGScheme(1000, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for id := nodeid.ID(1); id <= 20; id++ {
		s.Provision(id)
	}
	misses := 0
	for a := nodeid.ID(1); a <= 20; a++ {
		for b := a + 1; b <= 20; b++ {
			if !s.SupportsPair(a, b) {
				misses++
				if _, err := s.KeyFor(a, b); !errors.Is(err, ErrNoSharedKey) {
					t.Errorf("KeyFor(%v,%v) err = %v, want ErrNoSharedKey", a, b, err)
				}
			}
		}
	}
	if misses == 0 {
		t.Error("expected at least one ring miss with pool=1000, ring=1")
	}
}

func TestEGSchemeUnprovisionedNode(t *testing.T) {
	s, err := NewEGScheme(10, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Provision(1)
	if s.SupportsPair(1, 99) {
		t.Error("unprovisioned node supported")
	}
	if s.rings[99] != nil {
		t.Error("ring of unprovisioned node not nil")
	}
}

func TestEGProvisionIdempotent(t *testing.T) {
	s, err := NewEGScheme(100, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Provision(1)
	r1 := s.rings[1]
	s.Provision(1)
	r2 := s.rings[1]
	if len(r1) != len(r2) {
		t.Fatal("ring length changed on re-provision")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("ring changed on re-provision")
		}
	}
}

func TestEGConnectivityEstimateMatchesEmpirical(t *testing.T) {
	const (
		pool = 200
		ring = 20
		n    = 80
	)
	s, err := NewEGScheme(pool, ring, 99)
	if err != nil {
		t.Fatal(err)
	}
	for id := nodeid.ID(1); id <= n; id++ {
		s.Provision(id)
	}
	connected, total := 0, 0
	for a := nodeid.ID(1); a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			total++
			if s.SupportsPair(a, b) {
				connected++
			}
		}
	}
	got := float64(connected) / float64(total)
	want := s.ConnectivityEstimate()
	if math.Abs(got-want) > 0.05 {
		t.Errorf("empirical connectivity %.3f vs estimate %.3f", got, want)
	}
}

func TestBlundoSchemeValidation(t *testing.T) {
	if _, err := NewBlundoScheme(0, 1); err == nil {
		t.Error("degree 0 accepted")
	}
}

func TestBlundoSchemeKeys(t *testing.T) {
	s, err := NewBlundoScheme(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	ids := []nodeid.ID{1, 2, 3, 4, 5, 6, 7}
	checkSymmetry(t, s, ids)
	checkPairUniqueness(t, s, ids)
}

func TestBlundoShareEvaluationSymmetry(t *testing.T) {
	// The raw polynomial identity g_u(v) = g_v(u) for every instance.
	s, err := NewBlundoScheme(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	u, v := nodeid.ID(17), nodeid.ID(23)
	su, sv := s.Share(u), s.Share(v)
	for k := range su {
		if EvaluateShare(su[k], v) != EvaluateShare(sv[k], u) {
			t.Fatalf("instance %d: f(u,v) != f(v,u)", k)
		}
	}
}

func TestBlundoDeterministicBySeed(t *testing.T) {
	a, _ := NewBlundoScheme(4, 77)
	b, _ := NewBlundoScheme(4, 77)
	ka, _ := a.KeyFor(1, 2)
	kb, _ := b.KeyFor(1, 2)
	if !bytes.Equal(ka, kb) {
		t.Error("same seed produced different keys")
	}
	c, _ := NewBlundoScheme(4, 78)
	kc, _ := c.KeyFor(1, 2)
	if bytes.Equal(ka, kc) {
		t.Error("different seed produced same keys")
	}
}

func BenchmarkKDFKeyFor(b *testing.B) {
	s := NewKDFScheme([]byte("network secret"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.KeyFor(1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlundoKeyFor(b *testing.B) {
	s, err := NewBlundoScheme(50, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.KeyFor(1, 2); err != nil {
			b.Fatal(err)
		}
	}
}
