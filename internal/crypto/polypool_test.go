package crypto

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"snd/internal/nodeid"
)

func TestPolyPoolValidation(t *testing.T) {
	tests := []struct {
		name            string
		pool, ring, deg int
		wantErr         bool
	}{
		{"ok", 20, 5, 3, false},
		{"zero pool", 0, 5, 3, true},
		{"zero ring", 20, 0, 3, true},
		{"ring exceeds pool", 5, 6, 3, true},
		{"bad degree", 20, 5, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewPolyPoolScheme(tt.pool, tt.ring, tt.deg, 1)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestPolyPoolKeys(t *testing.T) {
	// Small pool with large rings: overlap guaranteed.
	s, err := NewPolyPoolScheme(6, 5, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := []nodeid.ID{1, 2, 3, 4, 5}
	for _, id := range ids {
		s.Provision(id)
	}
	checkSymmetry(t, s, ids)
	checkPairUniqueness(t, s, ids)
}

func TestPolyPoolMisses(t *testing.T) {
	s, err := NewPolyPoolScheme(500, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for id := nodeid.ID(1); id <= 15; id++ {
		s.Provision(id)
	}
	misses := 0
	for a := nodeid.ID(1); a <= 15; a++ {
		for b := a + 1; b <= 15; b++ {
			if !s.SupportsPair(a, b) {
				misses++
				if _, err := s.KeyFor(a, b); !errors.Is(err, ErrNoSharedKey) {
					t.Errorf("KeyFor(%v,%v) err = %v", a, b, err)
				}
			}
		}
	}
	if misses == 0 {
		t.Error("expected misses with pool=500, ring=1")
	}
}

func TestPolyPoolUnprovisioned(t *testing.T) {
	s, err := NewPolyPoolScheme(10, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Provision(1)
	if s.SupportsPair(1, 42) {
		t.Error("unprovisioned pair supported")
	}
	if s.rings[42] != nil {
		t.Error("unprovisioned ring non-nil")
	}
	// Provision is idempotent.
	r1 := s.rings[1]
	s.Provision(1)
	r2 := s.rings[1]
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("ring changed on re-provision")
		}
	}
}

func TestPolyPoolDeterministicBySeed(t *testing.T) {
	build := func(seed int64) []byte {
		s, err := NewPolyPoolScheme(4, 4, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		s.Provision(1)
		s.Provision(2)
		k, err := s.KeyFor(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if !bytes.Equal(build(9), build(9)) {
		t.Error("same seed produced different keys")
	}
	if bytes.Equal(build(9), build(10)) {
		t.Error("different seeds produced same keys")
	}
}

func TestPolyPoolConnectivityEstimate(t *testing.T) {
	s, err := NewPolyPoolScheme(100, 10, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for id := nodeid.ID(1); id <= 60; id++ {
		s.Provision(id)
	}
	connected, total := 0, 0
	for a := nodeid.ID(1); a <= 60; a++ {
		for b := a + 1; b <= 60; b++ {
			total++
			if s.SupportsPair(a, b) {
				connected++
			}
		}
	}
	got := float64(connected) / float64(total)
	// A share ring shares a polynomial exactly as an EG key ring shares a
	// key, so EG's estimate applies.
	eg := EGScheme{poolSize: 100, ringSize: 10}
	want := eg.ConnectivityEstimate()
	if math.Abs(got-want) > 0.06 {
		t.Errorf("empirical %v vs estimate %v", got, want)
	}
}

func TestPolyPoolName(t *testing.T) {
	s, err := NewPolyPoolScheme(10, 2, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "polypool(P=10,k=2,λ=3)" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.degree != 3 {
		t.Errorf("degree = %d", s.degree)
	}
}
