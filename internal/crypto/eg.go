package crypto

import (
	"fmt"
	"math"
	"math/rand"

	"snd/internal/nodeid"
)

// EGScheme implements the Eschenauer–Gligor random key predistribution
// scheme (CCS 2002, the paper's reference [7]): a pool of P random keys is
// generated offline; each node is pre-loaded with a ring of k keys drawn
// without replacement from the pool; two nodes can secure their link iff
// their rings intersect, in which case they use the common pool key with
// the lowest index (both sides pick the same one deterministically).
type EGScheme struct {
	poolSize int
	ringSize int
	pool     []Digest
	rings    map[nodeid.ID][]int
	rng      *rand.Rand
}

var _ PairwiseScheme = (*EGScheme)(nil)

// NewEGScheme creates a scheme with the given pool and ring sizes, seeded
// deterministically for reproducible experiments.
func NewEGScheme(poolSize, ringSize int, seed int64) (*EGScheme, error) {
	if poolSize <= 0 || ringSize <= 0 {
		return nil, fmt.Errorf("crypto: eg sizes must be positive, got pool=%d ring=%d", poolSize, ringSize)
	}
	if ringSize > poolSize {
		return nil, fmt.Errorf("crypto: eg ring %d exceeds pool %d", ringSize, poolSize)
	}
	rng := rand.New(rand.NewSource(seed))
	pool := make([]Digest, poolSize)
	for i := range pool {
		var raw [16]byte
		rng.Read(raw[:])
		pool[i] = hashTagged("snd/eg-pool", raw[:], uint32Bytes(uint32(i)))
	}
	return &EGScheme{
		poolSize: poolSize,
		ringSize: ringSize,
		pool:     pool,
		rings:    make(map[nodeid.ID][]int),
		rng:      rng,
	}, nil
}

// Provision assigns a fresh random key ring to node u (idempotent: a node
// keeps its first ring). This models the offline pre-loading step.
func (s *EGScheme) Provision(u nodeid.ID) {
	if _, ok := s.rings[u]; ok {
		return
	}
	ring := s.rng.Perm(s.poolSize)[:s.ringSize]
	owned := make([]int, s.ringSize)
	copy(owned, ring)
	s.rings[u] = owned
}

// Name implements PairwiseScheme.
func (s *EGScheme) Name() string {
	return fmt.Sprintf("eg(P=%d,k=%d)", s.poolSize, s.ringSize)
}

// sharedIndex returns the lowest pool index common to both rings, or -1.
func (s *EGScheme) sharedIndex(a, b nodeid.ID) int {
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

// KeyFor implements PairwiseScheme. The link key binds the shared pool key
// to the (unordered) node pair so different links never reuse the same key
// stream even when they share pool material.
func (s *EGScheme) KeyFor(a, b nodeid.ID) ([]byte, error) {
	if a == b {
		return nil, fmt.Errorf("crypto: pairwise key of %v with itself", a)
	}
	idx := s.sharedIndex(a, b)
	if idx < 0 {
		return nil, fmt.Errorf("crypto: %v and %v: %w", a, b, ErrNoSharedKey)
	}
	p := nodeid.Pair{From: a, To: b}.Canonical()
	d := hashTagged("snd/eg-link", s.pool[idx][:], p.From.Bytes(), p.To.Bytes())
	return d[:], nil
}

// SupportsPair implements PairwiseScheme.
func (s *EGScheme) SupportsPair(a, b nodeid.ID) bool {
	return a != b && s.sharedIndex(a, b) >= 0
}

// ConnectivityEstimate returns the analytical probability that two nodes
// share at least one pool key: 1 − C(P−k, k)/C(P, k), computed in log space
// to avoid overflow (Eschenauer–Gligor, Section 4).
func (s *EGScheme) ConnectivityEstimate() float64 {
	p, k := float64(s.poolSize), float64(s.ringSize)
	if 2*k > p {
		return 1
	}
	// ln[C(P−k,k)/C(P,k)] = ln Γ(P−k+1) ... use lgamma.
	lg := func(x float64) float64 {
		v, _ := math.Lgamma(x)
		return v
	}
	logMiss := lg(p-k+1) - lg(p-2*k+1) - (lg(p+1) - lg(p-k+1))
	return 1 - math.Exp(logMiss)
}
