// Package verify implements direct neighbor verification mechanisms — the
// black box the paper builds on (its references [8]–[10], [15]): methods
// that decide whether two devices are physically close enough to be
// neighbors, using distance bounding (RTT), received signal strength, or
// location claims.
//
// Two properties define the paper's premise and hold for every mechanism
// here:
//
//  1. They correctly verify neighbor relations between benign nodes (up to
//     configurable measurement noise).
//  2. They are transparently bypassed by node replication: a replica is
//     physically present at its planted location with valid secrets, so
//     every distance measurement about it is genuine and self-consistent.
//     Defending against that is the job of the paper's protocol, not of
//     direct verification.
package verify

import (
	"math"
	"math/rand"

	"snd/internal/deploy"
	"snd/internal/topology"
)

// Verifier is a direct neighbor verification mechanism. Verify reports
// whether the verifier device accepts the claimer device as a tentative
// neighbor under radio range r.
type Verifier interface {
	// Name identifies the mechanism in experiment output.
	Name() string
	// Verify runs one direct verification: can verifier confirm that
	// claimer is within range r?
	Verify(claimer, verifier *deploy.Device, r float64) bool
}

// ExactRange marks verifiers whose accept decision is exactly "claimer
// within distance r of verifier" — no measurement noise, no acceptance
// beyond the radius. For those mechanisms TentativeGraph assembles the
// topology from the layout's spatial index in O(n + k) instead of running
// the O(n²) pairwise sweep; noisy mechanisms (RTT, RSS) can accept pairs
// beyond r, so they must keep the exhaustive sweep.
type ExactRange interface {
	ExactRange() bool
}

// Oracle is the ideal mechanism: it accepts exactly the device pairs whose
// true distance is within range. The paper's analysis assumes this ("the
// direct neighbor verification mechanism can always correctly verify the
// neighbor relation between two benign nodes").
type Oracle struct{}

var _ Verifier = Oracle{}
var _ ExactRange = Oracle{}

// Name implements Verifier.
func (Oracle) Name() string { return "oracle" }

// Verify implements Verifier.
func (Oracle) Verify(claimer, verifier *deploy.Device, r float64) bool {
	return claimer.Pos.InRange(verifier.Pos, r)
}

// ExactRange implements ExactRange: the oracle's accept set is the range
// disk itself.
func (Oracle) ExactRange() bool { return true }

// RTT models round-trip-time distance bounding (packet leashes / wormhole
// detection, refs [9], [10]): the measured distance is the true distance
// plus Gaussian noise from clock granularity and processing jitter.
type RTT struct {
	// NoiseStd is the standard deviation of the distance estimate error in
	// meters.
	NoiseStd float64
	// Rng drives the noise; nil disables noise.
	Rng *rand.Rand
}

var _ Verifier = (*RTT)(nil)

// Name implements Verifier.
func (v *RTT) Name() string { return "rtt" }

// Verify implements Verifier.
func (v *RTT) Verify(claimer, verifier *deploy.Device, r float64) bool {
	d := claimer.Pos.Dist(verifier.Pos)
	if v.Rng != nil && v.NoiseStd > 0 {
		d += v.Rng.NormFloat64() * v.NoiseStd
	}
	return d <= r
}

// RSS models received-signal-strength ranging under the log-distance path
// loss model: P(d) = P0 − 10·η·log10(d/d0) + X, with shadowing noise X in
// dB. The verifier inverts the model to estimate distance.
type RSS struct {
	// PathLossExp is the path loss exponent η (≈ 2 free space, 3–4 indoor).
	PathLossExp float64
	// ShadowingDB is the standard deviation of the shadowing term in dB.
	ShadowingDB float64
	// Rng drives the shadowing; nil disables it.
	Rng *rand.Rand
}

var _ Verifier = (*RSS)(nil)

// Name implements Verifier.
func (v *RSS) Name() string { return "rss" }

// Verify implements Verifier.
func (v *RSS) Verify(claimer, verifier *deploy.Device, r float64) bool {
	const refDist = 1.0
	d := claimer.Pos.Dist(verifier.Pos)
	if d < refDist {
		return true
	}
	eta := v.PathLossExp
	if eta <= 0 {
		eta = 2
	}
	// Path loss relative to the reference distance, plus shadowing.
	loss := 10 * eta * math.Log10(d/refDist)
	if v.Rng != nil && v.ShadowingDB > 0 {
		loss += v.Rng.NormFloat64() * v.ShadowingDB
	}
	est := refDist * math.Pow(10, loss/(10*eta))
	return est <= r
}

// LocationClaim models location-based verification (refs [9], [10]): the
// claimer reports its position and the verifier checks it lies within
// range. Devices report their true current position — which is exactly why
// this defeats position *spoofing* but not replication: a replica's claimed
// position is its real, consistent position (Section 1: such schemes "do
// not work effectively when there are replicated nodes since the
// measurements generated regarding the same replica are always consistent").
type LocationClaim struct{}

var _ Verifier = LocationClaim{}
var _ ExactRange = LocationClaim{}

// Name implements Verifier.
func (LocationClaim) Name() string { return "location-claim" }

// Verify implements Verifier.
func (LocationClaim) Verify(claimer, verifier *deploy.Device, r float64) bool {
	return claimer.Pos.InRange(verifier.Pos, r)
}

// ExactRange implements ExactRange: truthful position reports accept
// exactly the in-range pairs.
func (LocationClaim) ExactRange() bool { return true }

// TentativeGraph runs direct verification between every ordered pair of
// alive devices and returns the tentative network topology (Definition 2)
// over logical node IDs. A relation (u, v) is added when some alive device
// claiming v passes u's verification — so replicas weave their compromised
// ID into the topology wherever they are planted, exactly the capability
// the paper's protocol must contain.
func TentativeGraph(l *deploy.Layout, v Verifier, r float64) *topology.Graph {
	b := topology.NewBuilder()
	if e, ok := v.(ExactRange); ok && e.ExactRange() {
		// The accept set is exactly the range disk, so the spatial index
		// reports precisely the devices every verifier accepts — O(n + k)
		// instead of n² verifications, with an identical relation set.
		l.EnsureGrid(r)
		l.ForEachDevice(func(a *deploy.Device) {
			if !a.Alive {
				return
			}
			b.AddNode(a.Node)
			l.ForEachInRange(a.Handle, r, func(d *deploy.Device) {
				b.AddRelation(a.Node, d.Node)
			})
		})
		return b.Finalize()
	}
	var alive []*deploy.Device
	l.ForEachDevice(func(d *deploy.Device) {
		if d.Alive {
			alive = append(alive, d)
			b.AddNode(d.Node)
		}
	})
	for _, a := range alive {
		for _, c := range alive {
			if a.Handle == c.Handle || a.Node == c.Node {
				continue
			}
			// a verifies c: relation (a.Node -> c.Node).
			if v.Verify(c, a, r) {
				b.AddRelation(a.Node, c.Node)
			}
		}
	}
	return b.Finalize()
}
