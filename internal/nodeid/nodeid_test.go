package nodeid

import (
	"bytes"
	"math/rand"
	"slices"
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
	s := NewSet(3, 1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, id := range []ID{1, 2, 3} {
		if !s.Contains(id) {
			t.Errorf("Contains(%v) = false", id)
		}
	}
	for _, id := range []ID{None, 4, 99} {
		if s.Contains(id) {
			t.Errorf("Contains(%v) = true", id)
		}
	}
	var empty Set
	if empty.Len() != 0 || empty.Contains(1) {
		t.Error("zero Set is not empty")
	}
}

func TestNewSetCopiesInput(t *testing.T) {
	ids := []ID{2, 1}
	s := NewSet(ids...)
	ids[0], ids[1] = 7, 8
	if !slices.Equal(s, Set{1, 2}) {
		t.Errorf("set changed with its input slice: %v", s)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(1, 2, 3, 4)
	b := NewSet(3, 4, 5)

	if got := a.Union(b); !slices.Equal(got, NewSet(1, 2, 3, 4, 5)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Diff(b); !slices.Equal(got, NewSet(1, 2)) {
		t.Errorf("Diff = %v", got)
	}
	if got := a.IntersectLen(b); got != 2 {
		t.Errorf("IntersectLen = %d, want 2", got)
	}
	if !slices.Equal(a, NewSet(1, 2, 3, 4)) || !slices.Equal(b, NewSet(3, 4, 5)) {
		t.Errorf("operands changed: %v, %v", a, b)
	}
}

func TestIntersectLenAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randomDense(rng, 150), randomDense(rng, 150)
	if n := testing.AllocsPerRun(100, func() { _ = a.IntersectLen(b) }); n != 0 {
		t.Errorf("IntersectLen allocates %v times, want 0", n)
	}
}

func TestIntersectLenMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a, b := randomSet(rng, 30), randomSet(rng, 30)
		want := 0
		for _, id := range a {
			if b.Contains(id) {
				want++
			}
		}
		if got := a.IntersectLen(b); got != want {
			t.Fatalf("IntersectLen = %d, members of a in b = %d", got, want)
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
			if got := slices.Equal(tt.a, tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSortedIsAscending(t *testing.T) {
	got := NewSet(9, 1, 5, 3, 9)
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
	ea, eb := AppendList(nil, a), AppendList(nil, b)
	if string(ea) != string(eb) {
		t.Errorf("encodings differ: %x vs %x", ea, eb)
	}
}

func TestEncodeDecodeListRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		ids := make([]ID, len(raw))
		for i, v := range raw {
			ids[i] = ID(v)
		}
		s := NewSet(ids...)
		dec, ok := DecodeList(AppendList(nil, s))
		return ok && slices.Equal(dec, s)
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
	if s, ok := DecodeList(list(1, 5, 9)); !ok || !slices.Equal(s, NewSet(1, 5, 9)) {
		t.Errorf("DecodeList rejected ascending list: %v, %v", s, ok)
	}
}

// FuzzDecodeList: arbitrary bytes never panic, ValidList accepts exactly
// what DecodeList decodes, and whatever decodes is canonical — a strictly
// ascending Set that re-encodes to exactly the input bytes.
func FuzzDecodeList(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendList(nil, NewSet(1, 2, 300)))
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 7, 0, 0, 0, 7})
	f.Add([]byte{0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok := DecodeList(data)
		if ValidList(data) != ok {
			t.Fatalf("ValidList(%x) = %v, DecodeList ok = %v", data, !ok, ok)
		}
		if !ok {
			return
		}
		assertAscending(t, "DecodeList", s)
		if got := AppendList(nil, s); !bytes.Equal(got, data) {
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
	if got := m.ApplySet(NewSet(1, 2, 3)); !slices.Equal(got, NewSet(10, 20, 3)) {
		t.Errorf("ApplySet = %v", got)
	}
	// A renaming onto an ID the set already holds collapses the two.
	if got := m.ApplySet(NewSet(1, 10)); !slices.Equal(got, NewSet(10)) {
		t.Errorf("ApplySet onto a held ID = %v", got)
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
	ids := make([]ID, rng.Intn(maxLen))
	for i := range ids {
		ids[i] = ID(rng.Intn(40) + 1)
	}
	return NewSet(ids...)
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
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(rng.Intn(400) + 1)
	}
	return NewSet(ids...)
}
