package sim

import (
	"fmt"

	"snd/internal/adversary"
	"snd/internal/core"
	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
)

// Compromise captures the protocol state of the given nodes (their primary
// devices). Per the paper's deployment-time trust assumption, nodes have
// finished discovery and erased K by the time they can be compromised, so
// the attacker obtains records and verification keys but no master key.
func (s *Simulation) Compromise(ids ...nodeid.ID) error {
	for _, id := range ids {
		ep := s.PrimaryEndpoint(id)
		if ep == nil {
			return fmt.Errorf("sim: compromise %v: no such node", id)
		}
		if got := s.attacker.Capture(ep); got {
			// Only possible if the engine compromised mid-discovery, which
			// DeployRound never leaves dangling.
			return fmt.Errorf("sim: compromise %v: unexpectedly captured a live master key", id)
		}
	}
	return nil
}

// PlantReplica deploys a replica device of the compromised node id at pos,
// running the attacker's cloned protocol state, and attaches it to the
// radio. The replica participates in all later discovery rounds: it
// answers hellos with the captured binding record, receives traffic
// addressed to its claimed ID, and may even request binding-record updates
// — everything the captured state permits, nothing more.
func (s *Simulation) PlantReplica(id nodeid.ID, pos geometry.Point) (*deploy.Device, error) {
	state, err := s.attacker.ReplicaState(id)
	if err != nil {
		return nil, fmt.Errorf("sim: plant replica: %w", err)
	}
	d, err := s.layout.DeployReplica(id, pos, s.round)
	if err != nil {
		return nil, fmt.Errorf("sim: plant replica: %w", err)
	}
	if err := s.attachDevice(d); err != nil {
		return nil, err
	}
	s.a.setEndpoint(d.Handle, state)
	return d, nil
}

// CloneCliqueAttack mounts the threshold-breaking attack: it finds k
// pairwise-co-located benign nodes (whose binding records therefore contain
// each other), compromises all of them, and plants one replica of each in a
// tight cluster around target. If k ≥ t+2, a fresh node deployed near the
// target will count k−1 ≥ t+1 common neighbors with every replica and
// validate them all — far from their original deployment points.
//
// A zero-valued target selects the field corner farthest from the clique's
// home area, maximizing the safety-radius breach. It returns the
// compromised node IDs and the (possibly auto-selected) target.
func (s *Simulation) CloneCliqueAttack(k int, target geometry.Point) ([]nodeid.ID, geometry.Point, error) {
	if s.tentative == nil {
		return nil, geometry.Point{}, fmt.Errorf("sim: no tentative topology yet")
	}
	clique := adversary.FindCoLocatedClique(s.tentative, k)
	if len(clique) < k {
		return nil, geometry.Point{}, fmt.Errorf("sim: found clique of %d, need %d", len(clique), k)
	}
	if target == (geometry.Point{}) {
		target = s.farthestCorner(s.cliqueCentroid(clique))
	}
	if err := s.Compromise(clique...); err != nil {
		return nil, geometry.Point{}, err
	}
	for i, id := range clique {
		// Spread the replicas a few meters apart so they are mutually in
		// range and all cover the target area.
		offset := geometry.Point{
			X: float64(i%3)*3 - 3,
			Y: float64(i/3)*3 - 3,
		}
		if _, err := s.PlantReplica(id, s.params.Field.Clamp(target.Add(offset))); err != nil {
			return nil, geometry.Point{}, err
		}
	}
	return clique, target, nil
}

func (s *Simulation) cliqueCentroid(ids []nodeid.ID) geometry.Point {
	var c geometry.Point
	n := 0
	for _, id := range ids {
		if d := s.layout.Primary(id); d != nil {
			c = c.Add(d.Origin)
			n++
		}
	}
	if n == 0 {
		return s.params.Field.Center()
	}
	return c.Scale(1 / float64(n))
}

func (s *Simulation) farthestCorner(from geometry.Point) geometry.Point {
	// Inset so the staging area keeps full radio coverage of nearby
	// arrivals.
	f := s.params.Field.Inset(s.params.Range / 4)
	corners := []geometry.Point{
		f.Min,
		{X: f.Max.X, Y: f.Min.Y},
		{X: f.Min.X, Y: f.Max.Y},
		f.Max,
	}
	best := corners[0]
	for _, c := range corners[1:] {
		if from.Dist2(c) > from.Dist2(best) {
			best = c
		}
	}
	return best
}

// ForgeFlood injects count forged protocol messages from the given replica
// device at its neighborhood: fabricated binding records (random
// commitments), bogus relation commitments, and malformed frames. The
// protocol must absorb all of it without accuracy loss (Section 4.4.2:
// "the attacker has no way to reduce the number of actual benign neighbor
// nodes in the functional neighbor list of any benign node u without
// jamming the communication channel").
func (s *Simulation) ForgeFlood(from deploy.Handle, count int) error {
	d := s.layout.Device(from)
	if d == nil {
		return fmt.Errorf("sim: forge flood: unknown device %d", from)
	}
	if s.a.trxAt(from) == nil {
		return fmt.Errorf("sim: forge flood: device %d not attached", from)
	}
	// Victim selection walks the grid index rather than scanning every
	// device; the slice is kept because the flood samples victims by index.
	var victims []*deploy.Device
	s.layout.ForEachInRange(from, s.params.Range, func(d *deploy.Device) {
		victims = append(victims, d)
	})
	for i := 0; i < count; i++ {
		var payload []byte
		switch i % 3 {
		case 0:
			// Fabricated binding record claiming the victims as neighbors.
			ids := make([]nodeid.ID, len(victims))
			for i, v := range victims {
				ids[i] = v.Node
			}
			rec := core.BindingRecord{Node: d.Node, Version: 0, Neighbors: nodeid.NewSet(ids...)}
			s.rng.Read(rec.Commitment[:])
			payload = mustEncode(core.Envelope{Type: core.MsgRecord, Record: rec})
		case 1:
			// Bogus relation commitment to a random victim.
			c := core.RelationCommitment{From: d.Node}
			if len(victims) > 0 {
				c.To = victims[s.rng.Intn(len(victims))].Node
			}
			s.rng.Read(c.Digest[:])
			payload = mustEncode(core.Envelope{Type: core.MsgCommitment, Commitment: c})
		default:
			// Malformed garbage.
			payload = make([]byte, 16)
			s.rng.Read(payload)
		}
		if _, err := s.medium.Broadcast(from, payload); err != nil {
			return fmt.Errorf("sim: forge flood: %w", err)
		}
	}
	// Let every device process (and reject) the noise.
	s.a.resetRound(s.layout.Count())
	return s.pump()
}

func mustEncode(env core.Envelope) []byte {
	b, err := env.Encode()
	if err != nil {
		// Envelope construction above is static; failure is a programming
		// error, not a runtime condition.
		panic(err)
	}
	return b
}
