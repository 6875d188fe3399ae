package nodeid

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIDString(t *testing.T) {
	tests := []struct {
		give ID
		want string
	}{
		{None, "n∅"},
		{1, "n1"},
		{42, "n42"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("ID(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestIDBytesRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		id := ID(v)
		got, ok := FromBytes(id.Bytes())
		return ok && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromBytesRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, 1, 3, 5, 8} {
		if _, ok := FromBytes(make([]byte, n)); ok {
			t.Errorf("FromBytes accepted %d bytes", n)
		}
	}
}

func TestPairCanonical(t *testing.T) {
	tests := []struct {
		give Pair
		want Pair
	}{
		{Pair{From: 1, To: 2}, Pair{From: 1, To: 2}},
		{Pair{From: 2, To: 1}, Pair{From: 1, To: 2}},
		{Pair{From: 7, To: 7}, Pair{From: 7, To: 7}},
	}
	for _, tt := range tests {
		if got := tt.give.Canonical(); got != tt.want {
			t.Errorf("%v.Canonical() = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestSetBasicOps(t *testing.T) {
	s := NewSet(1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Contains(2) {
		t.Error("Contains(2) = false")
	}
	s.Remove(2)
	if s.Contains(2) {
		t.Error("Contains(2) after Remove = true")
	}
	s.Add(9)
	if !s.Contains(9) {
		t.Error("Contains(9) after Add = false")
	}
}

func TestSetCloneIndependence(t *testing.T) {
	s := NewSet(1, 2)
	c := s.Clone()
	c.Add(3)
	if s.Contains(3) {
		t.Error("mutating clone changed original")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(1, 2, 3, 4)
	b := NewSet(3, 4, 5)

	if got := a.Intersect(b); !got.Equal(NewSet(3, 4)) {
		t.Errorf("Intersect = %v", got.Sorted())
	}
	if got := a.Union(b); !got.Equal(NewSet(1, 2, 3, 4, 5)) {
		t.Errorf("Union = %v", got.Sorted())
	}
	if got := a.Diff(b); !got.Equal(NewSet(1, 2)) {
		t.Errorf("Diff = %v", got.Sorted())
	}
	if got := a.IntersectLen(b); got != 2 {
		t.Errorf("IntersectLen = %d, want 2", got)
	}
}

func TestIntersectLenMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a, b := randomSet(rng, 30), randomSet(rng, 30)
		if got, want := a.IntersectLen(b), a.Intersect(b).Len(); got != want {
			t.Fatalf("IntersectLen = %d, Intersect().Len() = %d", got, want)
		}
	}
}

func TestSetEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Set
		want bool
	}{
		{"both empty", NewSet(), NewSet(), true},
		{"equal", NewSet(1, 2), NewSet(2, 1), true},
		{"subset", NewSet(1), NewSet(1, 2), false},
		{"disjoint", NewSet(1), NewSet(2), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSortedIsAscending(t *testing.T) {
	s := NewSet(9, 1, 5, 3)
	got := s.Sorted()
	want := []ID{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Sorted len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
}

func TestEncodeListCanonical(t *testing.T) {
	// Two sets built in different insertion orders must encode identically.
	a := NewSet(3, 1, 2)
	b := NewSet(2, 3, 1)
	ea, eb := EncodeList(a), EncodeList(b)
	if string(ea) != string(eb) {
		t.Errorf("encodings differ: %x vs %x", ea, eb)
	}
}

func TestEncodeDecodeListRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		s := make(Set, len(raw))
		for _, v := range raw {
			s.Add(ID(v))
		}
		dec, ok := DecodeList(EncodeList(s))
		return ok && dec.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeListRejectsBadLength(t *testing.T) {
	if _, ok := DecodeList(make([]byte, 5)); ok {
		t.Error("DecodeList accepted 5 bytes")
	}
}

func TestDecodeListRejectsNonCanonical(t *testing.T) {
	list := func(ids ...ID) []byte {
		var b []byte
		for _, id := range ids {
			b = append(b, id.Bytes()...)
		}
		return b
	}
	for _, ids := range [][]ID{{2, 1}, {3, 3}, {1, 5, 5, 9}, {1, 9, 4}} {
		if _, ok := DecodeList(list(ids...)); ok {
			t.Errorf("DecodeList accepted non-canonical %v", ids)
		}
	}
	if s, ok := DecodeList(list(1, 5, 9)); !ok || !s.Equal(NewSet(1, 5, 9)) {
		t.Errorf("DecodeList rejected ascending list: %v, %v", s, ok)
	}
}

// FuzzDecodeList: arbitrary bytes never panic, and whatever decodes is
// canonical — it re-encodes to exactly the input bytes.
func FuzzDecodeList(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeList(NewSet(1, 2, 300)))
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 7, 0, 0, 0, 7})
	f.Add([]byte{0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok := DecodeList(data)
		if !ok {
			return
		}
		if got := EncodeList(s); !bytes.Equal(got, data) {
			t.Fatalf("decoded %x re-encodes as %x", data, got)
		}
	})
}

func TestNewIsomorphismValidation(t *testing.T) {
	tests := []struct {
		name     string
		from, to []ID
		wantErr  bool
	}{
		{"ok", []ID{1, 2}, []ID{5, 6}, false},
		{"length mismatch", []ID{1}, []ID{5, 6}, true},
		{"dup domain", []ID{1, 1}, []ID{5, 6}, true},
		{"dup codomain", []ID{1, 2}, []ID{5, 5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewIsomorphism(tt.from, tt.to)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestIsomorphismApply(t *testing.T) {
	m, err := NewIsomorphism([]ID{1, 2}, []ID{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Apply(1); got != 10 {
		t.Errorf("Apply(1) = %v", got)
	}
	if got := m.Apply(99); got != 99 {
		t.Errorf("Apply(99) = %v, want identity on unmapped IDs", got)
	}
	if got := m.ApplySet(NewSet(1, 2, 3)); !got.Equal(NewSet(10, 20, 3)) {
		t.Errorf("ApplySet = %v", got.Sorted())
	}
}

func TestIsomorphismInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	from := []ID{1, 2, 3, 4, 5}
	to := []ID{11, 12, 13, 14, 15}
	rng.Shuffle(len(to), func(i, j int) { to[i], to[j] = to[j], to[i] })
	m, err := NewIsomorphism(from, to)
	if err != nil {
		t.Fatal(err)
	}
	inv := m.Inverse()
	for _, id := range from {
		if got := inv.Apply(m.Apply(id)); got != id {
			t.Errorf("inverse(apply(%v)) = %v", id, got)
		}
	}
}

func randomSet(rng *rand.Rand, maxLen int) Set {
	s := NewSet()
	n := rng.Intn(maxLen)
	for i := 0; i < n; i++ {
		s.Add(ID(rng.Intn(40) + 1))
	}
	return s
}

func BenchmarkIntersectLen(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomDense(rng, 150)
	y := randomDense(rng, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectLen(y)
	}
}

func randomDense(rng *rand.Rand, n int) Set {
	s := make(Set, n)
	for i := 0; i < n; i++ {
		s.Add(ID(rng.Intn(400) + 1))
	}
	return s
}
