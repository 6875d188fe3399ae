// Package nodeid defines sensor node identifiers and ID-set utilities shared
// by every layer of the simulator and the protocol implementation.
//
// Node IDs are opaque 32-bit integers. The paper's neighbor validation model
// requires decisions to be invariant under ID isomorphism (Definition 3), so
// nothing in this package or its consumers may attach meaning to the numeric
// value of an ID beyond equality and a stable ordering used for canonical
// encodings.
package nodeid

import (
	"encoding/binary"
	"fmt"
	"sort"
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

// Set is a set of node IDs. The zero value is an empty, usable set for
// reads; use NewSet or Add for writes.
type Set map[ID]struct{}

// NewSet builds a set from the given IDs.
func NewSet(ids ...ID) Set {
	s := make(Set, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Add inserts id into the set.
func (s Set) Add(id ID) { s[id] = struct{}{} }

// Remove deletes id from the set.
func (s Set) Remove(id ID) { delete(s, id) }

// Contains reports whether id is in the set.
func (s Set) Contains(id ID) bool {
	_, ok := s[id]
	return ok
}

// Len returns the number of IDs in the set.
func (s Set) Len() int { return len(s) }

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for id := range s {
		c[id] = struct{}{}
	}
	return c
}

// Union returns a new set containing every ID in s or t.
func (s Set) Union(t Set) Set {
	u := make(Set, len(s)+len(t))
	for id := range s {
		u[id] = struct{}{}
	}
	for id := range t {
		u[id] = struct{}{}
	}
	return u
}

// Intersect returns a new set containing the IDs present in both s and t.
func (s Set) Intersect(t Set) Set {
	small, large := s, t
	if len(large) < len(small) {
		small, large = large, small
	}
	u := make(Set, len(small))
	for id := range small {
		if large.Contains(id) {
			u[id] = struct{}{}
		}
	}
	return u
}

// IntersectLen returns |s ∩ t| without allocating the intersection. This is
// the hot operation of the paper's validation rule |N(u) ∩ N(v)| ≥ t+1.
func (s Set) IntersectLen(t Set) int {
	small, large := s, t
	if len(large) < len(small) {
		small, large = large, small
	}
	n := 0
	for id := range small {
		if large.Contains(id) {
			n++
		}
	}
	return n
}

// Diff returns a new set containing the IDs in s that are not in t.
func (s Set) Diff(t Set) Set {
	u := make(Set)
	for id := range s {
		if !t.Contains(id) {
			u[id] = struct{}{}
		}
	}
	return u
}

// Equal reports whether s and t contain exactly the same IDs.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for id := range s {
		if !t.Contains(id) {
			return false
		}
	}
	return true
}

// Sorted returns the set's IDs in ascending order. This is the canonical
// ordering used when hashing neighbor lists into binding commitments.
func (s Set) Sorted() []ID {
	ids := make([]ID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	SortIDs(ids)
	return ids
}

// SortIDs sorts a slice of IDs in ascending order, in place.
func SortIDs(ids []ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// ContainsSorted reports whether the ascending slice ids contains id, by
// binary search. It is the membership primitive of the compact (CSR)
// adjacency representation, where a neighbor row is a sorted slice rather
// than a Set.
func ContainsSorted(ids []ID, id ID) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

// IntersectSortedLen returns the size of the intersection of two ascending
// ID slices via a linear sorted merge — the allocation-free form of
// Set.IntersectLen for CSR rows, and the hot operation of the validation
// rule |N(u) ∩ N(v)| ≥ t+1 at scale.
func IntersectSortedLen(a, b []ID) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// EncodeList returns the canonical byte encoding of a neighbor list: the
// 4-byte encodings of the IDs in ascending order. Two equal sets always
// encode identically, which makes the binding commitment well defined.
func EncodeList(s Set) []byte {
	ids := s.Sorted()
	out := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		out = append(out, id.Bytes()...)
	}
	return out
}

// DecodeList parses the canonical encoding produced by EncodeList. It
// returns false unless b is a whole number of 4-byte IDs in strictly
// ascending order: an unsorted or repeated list is not canonical, and
// accepting one would let a single set arrive as many byte strings.
func DecodeList(b []byte) (Set, bool) {
	if len(b)%4 != 0 {
		return nil, false
	}
	s := make(Set, len(b)/4)
	var prev ID
	for i := 0; i < len(b); i += 4 {
		id, _ := FromBytes(b[i : i+4])
		if i > 0 && id <= prev {
			return nil, false
		}
		s.Add(id)
		prev = id
	}
	return s, true
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
	seen := make(Set, len(to))
	for i := range from {
		if _, dup := m[from[i]]; dup {
			return nil, fmt.Errorf("nodeid: duplicate domain id %v", from[i])
		}
		if seen.Contains(to[i]) {
			return nil, fmt.Errorf("nodeid: duplicate codomain id %v", to[i])
		}
		m[from[i]] = to[i]
		seen.Add(to[i])
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
	out := make(Set, len(s))
	for id := range s {
		out.Add(m.Apply(id))
	}
	return out
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
