// Package sim is the integration engine: it deploys nodes into a field,
// runs the paper's neighbor discovery protocol over the simulated radio
// medium (hello broadcasts, record exchange, binding-record updates,
// commitment and evidence delivery), hosts the attacker, and computes the
// metrics every experiment reports — accuracy, safety radii, and
// communication/computation/storage overhead.
//
// The engine is synchronous and deterministic for a given seed: protocol
// messages really travel through radio.Medium (and are counted there), but
// phases are driven in a fixed order. Package async layers a
// goroutine-per-node runtime on top of the same node logic.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"snd/internal/adversary"
	"snd/internal/core"
	"snd/internal/crypto"
	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/radio"
	"snd/internal/topology"
	"snd/internal/trace"
	"snd/internal/verify"
)

// Params configures a simulation. Zero values get paper defaults where
// sensible (Figure 3's setup: 200 nodes, 100×100 m, R = 50 m).
type Params struct {
	// Field is the deployment area (default 100×100 m).
	Field geometry.Rect
	// Range is the radio range R (default 50 m).
	Range float64
	// Nodes is the size of the initial deployment round (default 200).
	// Pass -1 to start with an empty field and drive DeployRound
	// manually (e.g. to jam or reconfigure before the first round).
	Nodes int
	// Threshold is the protocol's t.
	Threshold int
	// MaxUpdates is the protocol's m (update extension budget).
	MaxUpdates int
	// Seed drives every random choice.
	Seed int64
	// Sampler places nodes (default deploy.Uniform).
	Sampler deploy.Sampler
	// Verifier is the direct neighbor verification mechanism (default
	// verify.Oracle).
	Verifier verify.Verifier
	// LossProb is the radio packet loss probability.
	LossProb float64
	// Scheme, when set together with SecureChannels, provides pairwise
	// keys for sealing unicast protocol messages.
	Scheme crypto.PairwiseScheme
	// SecureChannels turns on authenticated encryption of unicasts.
	SecureChannels bool
	// DisableUpdates turns off update serving even when MaxUpdates > 0,
	// for ablations.
	DisableUpdates bool
	// Recorder, when set, receives a trace.Event for every protocol step
	// (hellos, record decisions, validations, commitments, updates,
	// rejections).
	Recorder trace.Recorder
}

func (p *Params) applyDefaults() {
	if p.Field.Area() == 0 {
		p.Field = geometry.NewField(100, 100)
	}
	if p.Range == 0 {
		p.Range = 50
	}
	if p.Nodes == 0 {
		p.Nodes = 200
	}
	if p.Nodes < 0 {
		p.Nodes = 0
	}
	if p.Sampler == nil {
		p.Sampler = deploy.Uniform{}
	}
	if p.Verifier == nil {
		p.Verifier = verify.Oracle{}
	}
}

// Simulation owns one simulated network.
type Simulation struct {
	params   Params
	rng      *rand.Rand
	master   *crypto.MasterKey
	layout   *deploy.Layout
	medium   *radio.Medium
	attacker *adversary.Attacker

	// a holds the handle-indexed per-device engine state (endpoints,
	// transceivers, link tables, round scratch), drawn from the arena
	// pool; see arena.go for the ownership rules.
	a *arena

	tentative *topology.Graph
	round     int
	// events tallies every protocol event by kind, whether or not a
	// Recorder is configured — the always-on bridge from trace events to
	// per-run counters, so attacked-run statistics (rejected records,
	// rejected commitments, malformed frames) are queryable after any run.
	events trace.Counts
	// protocolErrors counts rejected records/commitments/evidences —
	// attacker noise the protocol absorbed.
	protocolErrors int
	// channelFailures counts unicasts skipped or rejected at the secure
	// channel layer.
	channelFailures int
}

// New builds a simulation and runs the initial deployment round.
func New(p Params) (*Simulation, error) {
	p.applyDefaults()
	if p.SecureChannels && p.Scheme == nil {
		return nil, errors.New("sim: SecureChannels requires a pairwise key scheme")
	}
	master, err := crypto.NewMasterKey(deterministicReader(p.Seed))
	if err != nil {
		return nil, fmt.Errorf("sim: master key: %w", err)
	}
	s := &Simulation{
		params:   p,
		rng:      rand.New(rand.NewSource(p.Seed)),
		master:   master,
		layout:   deploy.NewLayout(p.Field),
		attacker: adversary.New(p.Seed + 1),
		a:        newArena(),
	}
	s.medium = radio.NewMedium(s.layout, radio.Config{
		Range:    p.Range,
		LossProb: p.LossProb,
		// Dense rounds queue a few hundred frames per device between
		// pump drains. This only bounds the backlog so none drop
		// spuriously; queues grow with their traffic, not with the bound.
		InboxSize: 8192,
		Seed:      p.Seed + 2,
	})
	if p.Nodes > 0 {
		if err := s.DeployRound(p.Nodes); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Params returns the simulation's (defaulted) parameters.
func (s *Simulation) Params() Params { return s.params }

// Layout exposes the physical deployment.
func (s *Simulation) Layout() *deploy.Layout { return s.layout }

// Medium exposes the radio medium (for jamming and counters).
func (s *Simulation) Medium() *radio.Medium { return s.medium }

// Attacker exposes the adversary state.
func (s *Simulation) Attacker() *adversary.Attacker { return s.attacker }

// Tentative returns the latest tentative topology (from the most recent
// discovery round).
func (s *Simulation) Tentative() *topology.Graph { return s.tentative }

// Round returns the number of completed deployment rounds.
func (s *Simulation) Round() int { return s.round }

// ProtocolErrors returns how many protocol messages were rejected
// (authentication failures, replays, malformed frames).
func (s *Simulation) ProtocolErrors() int { return s.protocolErrors }

// ChannelFailures returns how many unicasts failed at the secure-channel
// layer (no pairwise key, or decryption failure).
func (s *Simulation) ChannelFailures() int { return s.channelFailures }

// Endpoint returns the protocol state machine of the given device, or nil.
func (s *Simulation) Endpoint(h deploy.Handle) *core.Node { return s.a.endpoint(h) }

// PrimaryEndpoint returns the protocol state of node id's original device.
func (s *Simulation) PrimaryEndpoint(id nodeid.ID) *core.Node {
	d := s.layout.Primary(id)
	if d == nil {
		return nil
	}
	return s.a.endpoint(d.Handle)
}

// Close releases the simulation's pooled per-trial state back to the
// arena pool. The simulation must not be used afterwards; Close is
// idempotent, and skipping it merely forgoes the pooling (the state is
// then garbage collected normally). Sweeps that build one Simulation per
// trial should defer Close so consecutive trials recycle their arenas.
func (s *Simulation) Close() {
	if s.a != nil {
		s.a.release()
		s.a = nil
	}
}

// EventCounts returns the per-kind tallies of every protocol event this
// simulation has emitted. Counting is always on — it does not require a
// Recorder — and exactly mirrors what a configured Recorder receives.
func (s *Simulation) EventCounts() *trace.Counts { return &s.events }

// trace tallies a protocol event and forwards it to the configured
// recorder, if any.
func (s *Simulation) trace(kind trace.Kind, node, peer nodeid.ID) {
	e := trace.Event{Kind: kind, Node: node, Peer: peer, Round: s.round}
	s.events.Record(e)
	if s.params.Recorder != nil {
		s.params.Recorder.Record(e)
	}
}

// KillFraction depletes the batteries of the given fraction of benign
// devices (uniformly chosen) and returns the dead node IDs.
func (s *Simulation) KillFraction(frac float64) []nodeid.ID {
	killed := s.layout.KillFraction(frac, s.rng)
	ids := make([]nodeid.ID, 0, len(killed))
	for _, d := range killed {
		ids = append(ids, d.Node)
	}
	slices.Sort(ids)
	return ids
}

// deterministicReader adapts a seeded RNG into an io.Reader so that the
// master key (and everything downstream) is reproducible per seed.
type seedReader struct{ rng *rand.Rand }

func (r seedReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Intn(256))
	}
	return len(p), nil
}

func deterministicReader(seed int64) seedReader {
	return seedReader{rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
}
