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
		if got, ok := NewCounter(sa).CountList(AppendList(nil, sb)); !ok || got != len(and) {
			t.Fatalf("Counter(%v).CountList(%v) = %d, %v; oracle %d", sa, sb, got, ok, len(and))
		}
		assertMembers(t, "Union", sa.Union(sb), or)
		assertMembers(t, "Diff", sa.Diff(sb), diff)
		sameMembers := len(inA) == len(and) && len(inB) == len(and)
		if got := slices.Equal(sa, sb); got != sameMembers {
			t.Fatalf("slices.Equal(%v, %v) = %v", sa, sb, got)
		}
		enc := AppendList(nil, sa)
		if len(enc) != 4*len(sa) {
			t.Fatalf("AppendList length %d for %d IDs", len(enc), len(sa))
		}
		dec, ok := DecodeList(enc)
		if !ok {
			t.Fatalf("DecodeList rejected AppendList(nil, %v)", sa)
		}
		assertMembers(t, "DecodeList", dec, inA)
		if !slices.Equal(sa, saIn) || !slices.Equal(sb, sbIn) {
			t.Fatalf("operands changed: %v, %v; were %v, %v", sa, sb, saIn, sbIn)
		}
	})
}

// FuzzCountList checks Counter.CountList on arbitrary wire bytes against
// DecodeList + IntersectLen, through both of its branches: NewCounter's
// (a bitmap when the span rule picks one) and a counter forced to merge.
// It accepts exactly what DecodeList decodes. The first argument's bytes
// are the counter's IDs, one per byte as in FuzzSetOps.
func FuzzCountList(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3, 9}, AppendList(nil, Set{2, 3, 4}))
	f.Add([]byte{1, 2, 3, 9}, AppendList(nil, Set{4, 3, 2}))               // descending
	f.Add([]byte{1, 2, 3, 9}, AppendList(nil, Set{2, 2}))                  // repeated
	f.Add([]byte{5, 0x85}, AppendList(nil, Set{0, 5, ^ID(5), ^ID(0)}))     // merge branch
	f.Add([]byte{1, 2, 3, 9}, append(AppendList(nil, Set{1, 2}), 0xff))    // ragged length
	f.Add([]byte{0x7f, 0x7e, 0x01}, AppendList(nil, Set{1, 64, 126, 127})) // bitmap across words
	f.Fuzz(func(t *testing.T, ids, wire []byte) {
		s := NewSet(fuzzIDs(ids)...)
		dec, decOK := DecodeList(wire)
		if ValidList(wire) != decOK {
			t.Fatalf("ValidList(%x) = %v, DecodeList ok = %v", wire, !decOK, decOK)
		}
		want := s.IntersectLen(dec)
		for _, c := range []Counter{NewCounter(s), {set: s}} {
			got, ok := c.CountList(wire)
			if ok != decOK {
				t.Fatalf("Counter(%v, bitmap %v).CountList(%x) ok = %v, DecodeList ok = %v", s, c.bits != nil, wire, ok, decOK)
			}
			if ok && got != want {
				t.Fatalf("Counter(%v, bitmap %v).CountList(%v) = %d, IntersectLen %d", s, c.bits != nil, dec, got, want)
			}
		}
	})
}

// TestCounterMatchesMerge checks the bitmap count against IntersectLen's
// merge on lists at both sides of the span rule, empty and one-ID lists,
// probes outside the span (below it, inside its last word and beyond) and
// IDs near 2³²−1, and checks which side of the rule each list takes by
// what NewCounter allocates: one bitmap, or nothing at all.
func TestCounterMatchesMerge(t *testing.T) {
	const top = ^ID(0)
	lists := []struct {
		name   string
		s      Set
		bitmap bool
	}{
		{"empty", nil, false},
		{"one ID", Set{7}, true},
		{"one ID at the top", Set{top}, true},
		{"one ID at zero", Set{0}, true},
		{"span of exactly len words", Set{100, 164}, true},
		{"span one word too wide", Set{100, 228}, false},
		{"three IDs over two words", Set{5, 68, 131}, true},
		{"dense run", NewSet(idsFrom(1, 200)...), true},
		{"dense near the top", Set{top - 64, top - 1, top}, true},
		{"span of exactly len words at the top", Set{top - 64, top}, true},
		{"wide: zero to the top", Set{0, top}, false},
		{"wide: sequential IDs spread out", Set{3, 400, 901, 1500, 1999}, false},
	}
	for _, l := range lists {
		probes := []ID{0, 1, 63, 64, 65, top - 64, top - 63, top - 1, top}
		if len(l.s) > 0 {
			lo, hi := l.s[0], l.s[len(l.s)-1]
			for _, d := range []ID{1, 2, 63, 64, 65, 128} {
				probes = append(probes, lo-d, hi+d)
			}
			for _, id := range l.s {
				probes = append(probes, id-1, id, id+1)
			}
		}
		all := NewSet(probes...)
		every2 := make(Set, 0, len(all))
		for i := 0; i < len(all); i += 2 {
			every2 = append(every2, all[i])
		}
		c := NewCounter(l.s)
		for _, probe := range []Set{nil, all, every2, l.s, NewSet(l.s...)} {
			if got, ok := c.CountList(AppendList(nil, probe)); !ok || got != l.s.IntersectLen(probe) {
				t.Errorf("%s: Counter(%v).CountList(%v) = %d, %v; merge %d", l.name, l.s, probe, got, ok, l.s.IntersectLen(probe))
			}
		}
		want := 0.0
		if l.bitmap {
			want = 1
		}
		if got := testing.AllocsPerRun(20, func() { _ = NewCounter(l.s) }); got != want {
			t.Errorf("%s: NewCounter(%v) made %v allocations, want %v", l.name, l.s, got, want)
		}
		wire := AppendList(nil, all)
		if got := testing.AllocsPerRun(20, func() { _, _ = c.CountList(wire) }); got != 0 {
			t.Errorf("%s: CountList allocates %v", l.name, got)
		}
	}
}

func idsFrom(lo, n ID) []ID {
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = lo + ID(i)
	}
	return ids
}
