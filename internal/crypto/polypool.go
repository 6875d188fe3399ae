package crypto

import (
	"fmt"
	"math/rand"

	"snd/internal/nodeid"
)

// PolyPoolScheme implements Liu–Ning polynomial-pool key predistribution
// (CCS 2003, the paper's reference [13]): it combines Eschenauer–Gligor's
// random pool idea with Blundo polynomials. The setup server generates a
// pool of symmetric bivariate polynomials; each node is pre-loaded with
// its shares of a random subset of them; two nodes sharing a polynomial
// derive the pairwise key f(u, v) from it. Compared to EG, compromised
// nodes leak no keys of uncompromised links until more than λ nodes
// holding the *same* polynomial are captured.
type PolyPoolScheme struct {
	poolSize int
	ringSize int
	degree   int
	pool     []*BlundoScheme
	rings    map[nodeid.ID][]int
	rng      *rand.Rand
}

var _ PairwiseScheme = (*PolyPoolScheme)(nil)

// NewPolyPoolScheme creates a pool of poolSize degree-λ polynomial groups
// and assigns rings of ringSize shares per node, all derived from seed.
func NewPolyPoolScheme(poolSize, ringSize, degree int, seed int64) (*PolyPoolScheme, error) {
	if poolSize <= 0 || ringSize <= 0 {
		return nil, fmt.Errorf("crypto: polypool sizes must be positive, got pool=%d ring=%d", poolSize, ringSize)
	}
	if ringSize > poolSize {
		return nil, fmt.Errorf("crypto: polypool ring %d exceeds pool %d", ringSize, poolSize)
	}
	pool := make([]*BlundoScheme, poolSize)
	for i := range pool {
		b, err := NewBlundoScheme(degree, seed+int64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("crypto: polypool element %d: %w", i, err)
		}
		pool[i] = b
	}
	return &PolyPoolScheme{
		poolSize: poolSize,
		ringSize: ringSize,
		degree:   degree,
		pool:     pool,
		rings:    make(map[nodeid.ID][]int),
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// Provision assigns node u its random subset of polynomial shares
// (idempotent).
func (s *PolyPoolScheme) Provision(u nodeid.ID) {
	if _, ok := s.rings[u]; ok {
		return
	}
	ring := s.rng.Perm(s.poolSize)[:s.ringSize]
	owned := make([]int, s.ringSize)
	copy(owned, ring)
	s.rings[u] = owned
}

// Name implements PairwiseScheme.
func (s *PolyPoolScheme) Name() string {
	return fmt.Sprintf("polypool(P=%d,k=%d,λ=%d)", s.poolSize, s.ringSize, s.degree)
}

func (s *PolyPoolScheme) sharedIndex(a, b nodeid.ID) int {
	ra, ok := s.rings[a]
	if !ok {
		return -1
	}
	rb, ok := s.rings[b]
	if !ok {
		return -1
	}
	inB := make(map[int]struct{}, len(rb))
	for _, i := range rb {
		inB[i] = struct{}{}
	}
	best := -1
	for _, i := range ra {
		if _, ok := inB[i]; ok && (best == -1 || i < best) {
			best = i
		}
	}
	return best
}

// KeyFor implements PairwiseScheme: the lowest-index shared polynomial is
// evaluated at the pair (both sides compute the same f(u, v)), and the
// link key binds the pool index so different shared polynomials never
// yield colliding keys.
func (s *PolyPoolScheme) KeyFor(a, b nodeid.ID) ([]byte, error) {
	if a == b {
		return nil, fmt.Errorf("crypto: pairwise key of %v with itself", a)
	}
	idx := s.sharedIndex(a, b)
	if idx < 0 {
		return nil, fmt.Errorf("crypto: %v and %v: %w", a, b, ErrNoSharedKey)
	}
	inner, err := s.pool[idx].KeyFor(a, b)
	if err != nil {
		return nil, err
	}
	d := hashTagged("snd/polypool-link", inner, uint32Bytes(uint32(idx)))
	return d[:], nil
}

// SupportsPair implements PairwiseScheme.
func (s *PolyPoolScheme) SupportsPair(a, b nodeid.ID) bool {
	return a != b && s.sharedIndex(a, b) >= 0
}
