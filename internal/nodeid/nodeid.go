// Package nodeid defines sensor node identifiers and the ID set shared by
// every layer of the simulator and the protocol implementation.
//
// Node IDs are opaque 32-bit integers. The paper's neighbor validation model
// requires decisions to be invariant under ID isomorphism (Definition 3), so
// nothing in this package or its consumers may attach meaning to the numeric
// value of an ID beyond equality and a stable ordering used for canonical
// encodings.
//
// A Set is that canonical order made concrete: an immutable, strictly
// ascending ID slice. Membership is a binary search, the set algebra is a
// sorted merge, and a list's wire encoding is its IDs appended in place.
// Code that grows a set privately (a BFS frontier, a partition under
// assembly) keeps its own scratch slice or map and builds a Set at the end.
package nodeid

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// ID identifies a sensor node. The zero value None is reserved and never
// assigned to a real node.
type ID uint32

// None is the reserved "no node" identifier.
const None ID = 0

// String renders the ID in the form used throughout logs and test output.
func (id ID) String() string {
	if id == None {
		return "n∅"
	}
	return fmt.Sprintf("n%d", uint32(id))
}

// Bytes returns the canonical 4-byte big-endian encoding of the ID, used as
// input to commitments and key derivations.
func (id ID) Bytes() []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(id))
	return b[:]
}

// FromBytes decodes an ID from its canonical encoding. It returns None and
// false if b is not exactly 4 bytes.
func FromBytes(b []byte) (ID, bool) {
	if len(b) != 4 {
		return None, false
	}
	return ID(binary.BigEndian.Uint32(b)), true
}

// Pair is an ordered pair of node IDs, used to key directed relations.
type Pair struct {
	From ID
	To   ID
}

// String renders the pair as a directed relation.
func (p Pair) String() string { return p.From.String() + "->" + p.To.String() }

// Canonical returns the pair with the smaller ID first, for keying
// undirected relations (e.g. pairwise keys).
func (p Pair) Canonical() Pair {
	if p.To < p.From {
		return Pair{From: p.To, To: p.From}
	}
	return p
}

// Set is an immutable set of node IDs, stored as a strictly ascending
// slice. Ascending is the canonical order the binding commitment hashes
// N(u) in, so a Set encodes by appending and validates by merging: no map,
// no sort and no copy per use.
//
// Ownership: constructors (NewSet, DecodeList, the set algebra) return
// fresh storage, and nobody writes into a Set afterwards. That lets graph
// rows, binding records and their copies share one backing array. A Set
// built any other way (a literal or a conversion) must already be strictly
// ascending. The zero value is the empty set.
type Set []ID

// NewSet builds a set from the given IDs, in any order and with repeats.
// It copies its input, so the caller may reuse the slice afterwards.
func NewSet(ids ...ID) Set {
	s := slices.Clone(ids)
	slices.Sort(s)
	return slices.Compact(s)
}

// Contains reports whether id is in the set, by binary search.
func (s Set) Contains(id ID) bool {
	_, ok := slices.BinarySearch(s, id)
	return ok
}

// Len returns the number of IDs in the set.
func (s Set) Len() int { return len(s) }

// Union returns a new set containing every ID in s or t.
func (s Set) Union(t Set) Set {
	u := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			u = append(u, s[i])
			i++
		case s[i] > t[j]:
			u = append(u, t[j])
			j++
		default:
			u = append(u, s[i])
			i++
			j++
		}
	}
	u = append(u, s[i:]...)
	return append(u, t[j:]...)
}

// IntersectLen returns |s ∩ t| by sorted merge, without allocating. This
// is the hot operation of the paper's validation rule |N(u) ∩ N(v)| ≥ t+1.
func (s Set) IntersectLen(t Set) int {
	n, i, j := 0, 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Diff returns a new set containing the IDs in s that are not in t.
func (s Set) Diff(t Set) Set {
	u := make(Set, 0, len(s))
	j := 0
	for _, id := range s {
		for j < len(t) && t[j] < id {
			j++
		}
		if j == len(t) || t[j] != id {
			u = append(u, id)
		}
	}
	return u
}

// AppendList appends the canonical encoding of s to b, the form record
// encoders use to write a list straight into their frame.
func AppendList(b []byte, s Set) []byte {
	for _, id := range s {
		b = binary.BigEndian.AppendUint32(b, uint32(id))
	}
	return b
}

// ValidList reports whether b is a canonical list encoding: a whole number
// of 4-byte IDs in strictly ascending order. It is the acceptance test of
// DecodeList and CountList, for readers that only need to know a list is
// well formed.
func ValidList(b []byte) bool {
	_, ok := Counter{}.CountList(b)
	return ok
}

// DecodeList parses the canonical encoding produced by AppendList into a
// Set of its own. It returns false unless ValidList(b): an unsorted or
// repeated list is not canonical, and accepting one would let a single set
// arrive as many byte strings.
func DecodeList(b []byte) (Set, bool) {
	if len(b)%4 != 0 {
		return nil, false
	}
	s := make(Set, len(b)/4)
	for i := range s {
		s[i] = ID(binary.BigEndian.Uint32(b[4*i:]))
		if i > 0 && s[i] <= s[i-1] {
			return nil, false
		}
	}
	return s, true
}

// Counter answers |s ∩ t| for one fixed s against many received lists t,
// the shape of the validation rule: one node's list counted against each
// neighbor's, straight from the wire.
//
// When s is dense over its ID span [s[0], s[len(s)-1]] — the span needs no
// more 64-bit words than s has IDs — the counter keeps a bitmap of s and a
// count is one bit test per ID of t; IDs outside the span count 0. The
// bitmap then costs at most 8 bytes per ID of s. A sparser s keeps no
// bitmap, and a count is a sorted merge. The zero Counter counts against
// the empty set.
type Counter struct {
	set  Set
	lo   ID
	bits []uint64 // bit d is set iff lo+d ∈ set; nil when the span is too wide
}

// NewCounter builds the counter for s. It allocates only the bitmap, and
// only when the span rule picks one.
func NewCounter(s Set) Counter {
	c := Counter{set: s}
	if len(s) == 0 {
		return c
	}
	lo, hi := s[0], s[len(s)-1]
	words := uint64(hi-lo)/64 + 1
	if words > uint64(len(s)) {
		return c
	}
	c.lo = lo
	c.bits = make([]uint64, words)
	for _, id := range s {
		d := id - lo
		c.bits[d/64] |= 1 << (d % 64)
	}
	return c
}

// CountList reads b as a canonical list encoding and returns |s ∩ t| for
// the counter's s and the set t that b encodes, in one pass and without
// decoding or allocating. ok is ValidList(b): a list that is not canonical
// counts nothing, so a receiver checks and counts a list it never keeps.
func (c Counter) CountList(b []byte) (n int, ok bool) {
	if len(b)%4 != 0 {
		return 0, false
	}
	span := uint64(len(c.bits)) * 64
	j := 0 // the merge's position in c.set
	var prev ID
	for i := 0; i < len(b); i += 4 {
		id := ID(binary.BigEndian.Uint32(b[i:]))
		if i > 0 && id <= prev {
			return 0, false
		}
		prev = id
		if c.bits != nil {
			// An ID below lo wraps to a huge offset and fails the span test.
			if d := uint64(id) - uint64(c.lo); d < span {
				n += int(c.bits[d/64] >> (d % 64) & 1)
			}
			continue
		}
		for j < len(c.set) && c.set[j] < id {
			j++
		}
		if j < len(c.set) && c.set[j] == id {
			n++
			j++
		}
	}
	return n, true
}

// Isomorphism is a bijective renaming of node IDs, as used by Definition 3
// (the validation function must commute with any such renaming) and by the
// Theorem 1/2 attack constructions.
type Isomorphism map[ID]ID

// NewIsomorphism builds the mapping from[i] -> to[i]. It returns an error if
// the slices have different lengths or either side contains duplicates.
func NewIsomorphism(from, to []ID) (Isomorphism, error) {
	if len(from) != len(to) {
		return nil, fmt.Errorf("nodeid: isomorphism domain %d != codomain %d", len(from), len(to))
	}
	m := make(Isomorphism, len(from))
	seen := make(map[ID]bool, len(to))
	for i := range from {
		if _, dup := m[from[i]]; dup {
			return nil, fmt.Errorf("nodeid: duplicate domain id %v", from[i])
		}
		if seen[to[i]] {
			return nil, fmt.Errorf("nodeid: duplicate codomain id %v", to[i])
		}
		m[from[i]] = to[i]
		seen[to[i]] = true
	}
	return m, nil
}

// Apply maps id through the isomorphism. IDs outside the mapping's domain
// are returned unchanged, matching the paper's convention that a renaming
// fixes every ID it does not mention.
func (m Isomorphism) Apply(id ID) ID {
	if mapped, ok := m[id]; ok {
		return mapped
	}
	return id
}

// ApplySet maps every ID in s through the isomorphism.
func (m Isomorphism) ApplySet(s Set) Set {
	out := make([]ID, len(s))
	for i, id := range s {
		out[i] = m.Apply(id)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Inverse returns the inverse mapping. Isomorphisms built with
// NewIsomorphism are bijective, so the inverse is total over the codomain.
func (m Isomorphism) Inverse() Isomorphism {
	inv := make(Isomorphism, len(m))
	for from, to := range m {
		inv[to] = from
	}
	return inv
}
