package nodeid

import (
	"slices"
	"testing"
)

// fuzzIDs decodes one byte per ID. The low seven bits pick a small ID and
// the high bit reflects it to the top of the ID range, so two short lists
// overlap often and also exercise ordering near 2³²−1.
func fuzzIDs(b []byte) []ID {
	ids := make([]ID, len(b))
	for i, c := range b {
		ids[i] = ID(c & 0x7f)
		if c&0x80 != 0 {
			ids[i] = ^ids[i]
		}
	}
	return ids
}

func assertAscending(t *testing.T, op string, s Set) {
	t.Helper()
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			t.Fatalf("%s = %v: not strictly ascending at %d", op, s, i)
		}
	}
}

// assertMembers fails unless s holds exactly the IDs the oracle marks.
func assertMembers(t *testing.T, op string, s Set, want map[ID]bool) {
	t.Helper()
	assertAscending(t, op, s)
	if len(s) != len(want) {
		t.Fatalf("%s = %v: %d members, oracle has %d", op, s, len(s), len(want))
	}
	for _, id := range s {
		if !want[id] {
			t.Fatalf("%s = %v: holds %v, oracle does not", op, s, id)
		}
	}
}

// FuzzSetOps checks the sorted-slice Set against a map oracle. The first
// byte splits the rest into two ID lists a and b.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 5, 1, 1, 5, 9})
	f.Add([]byte{3, 1, 2, 3, 1, 2, 3})
	f.Add([]byte{1, 0x81, 0x81, 0x01, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var a, b []ID
		if len(data) > 0 {
			k := int(data[0]) % len(data)
			a, b = fuzzIDs(data[1:1+k]), fuzzIDs(data[1+k:])
		}
		inA, inB := map[ID]bool{}, map[ID]bool{}
		for _, id := range a {
			inA[id] = true
		}
		for _, id := range b {
			inB[id] = true
		}
		aIn := slices.Clone(a)
		sa, sb := NewSet(a...), NewSet(b...)
		if !slices.Equal(a, aIn) {
			t.Fatalf("NewSet reordered its input: %v, was %v", a, aIn)
		}
		assertMembers(t, "NewSet(a)", sa, inA)
		assertMembers(t, "NewSet(b)", sb, inB)
		saIn, sbIn := slices.Clone(sa), slices.Clone(sb)

		and, or, diff := map[ID]bool{}, map[ID]bool{}, map[ID]bool{}
		for id := range inA {
			or[id] = true
			if inB[id] {
				and[id] = true
			} else {
				diff[id] = true
			}
		}
		for id := range inB {
			or[id] = true
		}
		for c := 0; c < 256; c++ {
			id := fuzzIDs([]byte{byte(c)})[0]
			if got := sa.Contains(id); got != inA[id] {
				t.Fatalf("%v.Contains(%v) = %v", sa, id, got)
			}
		}
		if got := sa.IntersectLen(sb); got != len(and) {
			t.Fatalf("IntersectLen = %d, oracle %d", got, len(and))
		}
		assertMembers(t, "Intersect", sa.Intersect(sb), and)
		assertMembers(t, "Union", sa.Union(sb), or)
		assertMembers(t, "Diff", sa.Diff(sb), diff)
		sameMembers := len(inA) == len(and) && len(inB) == len(and)
		if got := sa.Equal(sb); got != sameMembers {
			t.Fatalf("%v.Equal(%v) = %v", sa, sb, got)
		}
		enc := EncodeList(sa)
		if len(enc) != 4*len(sa) {
			t.Fatalf("EncodeList length %d for %d IDs", len(enc), len(sa))
		}
		dec, ok := DecodeList(enc)
		if !ok {
			t.Fatalf("DecodeList rejected EncodeList(%v)", sa)
		}
		assertMembers(t, "DecodeList", dec, inA)
		if !slices.Equal(sa, saIn) || !slices.Equal(sb, sbIn) {
			t.Fatalf("operands changed: %v, %v; were %v, %v", sa, sb, saIn, sbIn)
		}
	})
}
