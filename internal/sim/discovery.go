package sim

import (
	"errors"
	"fmt"

	"snd/internal/core"
	"snd/internal/crypto"
	"snd/internal/deploy"
	"snd/internal/nodeid"
	"snd/internal/radio"
	"snd/internal/trace"
	"snd/internal/verify"
)

// DeployRound deploys n fresh nodes with the configured sampler, attaches
// them to the radio, and runs the discovery protocol for them (including
// update serving for old neighbors).
func (s *Simulation) DeployRound(n int) error {
	return s.DeployRoundAt(n, s.params.Sampler)
}

// DeployRoundAt is DeployRound with an explicit position sampler, for
// targeted redeployment (e.g. reinforcing one region).
func (s *Simulation) DeployRoundAt(n int, sampler deploy.Sampler) error {
	devs := s.layout.DeploySampled(sampler, n, s.rng, s.round)
	for _, d := range devs {
		if err := s.attachDevice(d); err != nil {
			return err
		}
		ep, err := core.NewNode(d.Node, s.master, core.Config{
			Threshold:  s.params.Threshold,
			MaxUpdates: s.params.MaxUpdates,
		})
		if err != nil {
			return fmt.Errorf("sim: endpoint for %v: %w", d.Node, err)
		}
		s.a.setEndpoint(d.Handle, ep)
	}
	if err := s.runDiscovery(devs); err != nil {
		return err
	}
	s.round++
	return nil
}

func (s *Simulation) attachDevice(d *deploy.Device) error {
	t, err := s.medium.Attach(d.Handle)
	if err != nil {
		return fmt.Errorf("sim: attach %v: %w", d.Node, err)
	}
	s.a.setTrx(d.Handle, t)
	return nil
}

// runDiscovery drives the paper's protocol for the given freshly deployed
// devices:
//
//  1. direct verification produces the tentative topology;
//  2. each fresh node creates its binding record (BeginDiscovery) and
//     broadcasts a hello carrying it;
//  3. neighbors respond with their binding records; old neighbors may also
//     request a binding-record update, which the fresh node (still holding
//     K) serves;
//  4. each fresh node validates (FinishDiscovery, erasing K) and unicasts
//     relation commitments and evidences;
//  5. recipients verify commitments against their verification keys and
//     buffer evidences.
//
// All transfers go through the radio medium and are counted there.
func (s *Simulation) runDiscovery(newDevs []*deploy.Device) error {
	s.tentative = verify.TentativeGraph(s.layout, s.params.Verifier, s.params.Range)

	s.a.resetRound(s.layout.Count())

	for _, d := range newDevs {
		if d.Replica {
			continue
		}
		ep := s.a.endpoint(d.Handle)
		if err := ep.BeginDiscovery(s.tentative.Out(d.Node)); err != nil {
			return fmt.Errorf("sim: begin discovery %v: %w", d.Node, err)
		}
	}
	// Hello broadcasts.
	for _, d := range newDevs {
		if d.Replica {
			continue
		}
		env := core.Envelope{Type: core.MsgHello, Record: s.a.endpoint(d.Handle).Record()}
		if err := s.broadcast(d.Handle, env); err != nil {
			return err
		}
		s.trace(trace.KindHello, d.Node, nodeid.None)
	}
	if err := s.pump(); err != nil {
		return err
	}
	// Validation, commitment and evidence distribution.
	for _, d := range newDevs {
		if d.Replica {
			continue
		}
		ep := s.a.endpoint(d.Handle)
		res, err := ep.FinishDiscovery()
		if err != nil {
			return fmt.Errorf("sim: finish discovery %v: %w", d.Node, err)
		}
		if err := s.sendResult(d, res); err != nil {
			return err
		}
	}
	return s.pump()
}

// sendResult unicasts a fresh node's commitments and evidences. All of
// them are encoded into one buffer sized up front, and each frame is a
// capacity-clipped window of it, so the medium's receivers can share the
// frames and none can append into its neighbor.
func (s *Simulation) sendResult(d *deploy.Device, res *core.DiscoveryResult) error {
	commitLen := core.Envelope{Type: core.MsgCommitment}.WireLen()
	evidenceLen := core.Envelope{Type: core.MsgEvidence}.WireLen()
	buf := make([]byte, 0, len(res.Commitments)*commitLen+len(res.Evidences)*evidenceLen)
	send := func(to nodeid.ID, env core.Envelope) error {
		start := len(buf)
		var err error
		if buf, err = env.AppendTo(buf); err != nil {
			return fmt.Errorf("sim: encode unicast: %w", err)
		}
		return s.send(d.Handle, to, buf[start:len(buf):len(buf)])
	}
	for _, c := range res.Commitments {
		s.trace(trace.KindValidated, d.Node, c.To)
		if err := send(c.To, core.Envelope{Type: core.MsgCommitment, Commitment: c}); err != nil {
			return err
		}
	}
	for _, ev := range res.Evidences {
		if err := send(ev.To, core.Envelope{Type: core.MsgEvidence, Evidence: ev}); err != nil {
			return err
		}
	}
	return nil
}

// pump drains and handles inbound messages across all devices until the
// network is quiet. Handling a message may trigger further sends (record
// responses, update traffic), so pumping iterates to a fixed point. The
// walk runs directly over the arena's transceiver slice — ascending
// handle is deployment order — so a pass over a quiet network allocates
// nothing.
func (s *Simulation) pump() error {
	for {
		progress := false
		for i, t := range s.a.trx {
			if t == nil {
				continue
			}
			d := s.layout.Device(deploy.Handle(i + 1))
			for {
				msg, ok := t.TryRecv()
				if !ok {
					break
				}
				progress = true
				if !d.Alive {
					continue
				}
				if err := s.handleMessage(d, msg); err != nil {
					return err
				}
			}
		}
		if !progress {
			return nil
		}
	}
}

// handleMessage dispatches one received frame at device d.
func (s *Simulation) handleMessage(d *deploy.Device, msg radio.Message) error {
	ep := s.a.endpoint(d.Handle)
	if ep == nil {
		return nil
	}
	payload, ok := s.openPayload(d.Handle, msg)
	if !ok {
		s.channelFailures++
		return nil
	}
	if len(payload) > 0 {
		switch core.MsgType(payload[0]) {
		case core.MsgHello:
			// Hellos are validated in place: the reply needs only the sender.
			from, err := core.HelloSender(payload)
			if err != nil {
				s.protocolErrors++
				s.trace(trace.KindMalformed, d.Node, msg.FromNode)
				return nil
			}
			return s.handleHello(d, ep, from)
		case core.MsgRecord:
			s.handleRecord(d, ep, msg, payload)
			return nil
		}
	}
	env, err := core.DecodeEnvelope(payload)
	if err != nil {
		s.protocolErrors++
		s.trace(trace.KindMalformed, d.Node, msg.FromNode)
		return nil
	}
	switch env.Type {
	case core.MsgUpdateRequest:
		if ep.Phase() == core.PhaseDiscovering {
			updated, err := ep.ServeUpdateRequest(env.Update)
			if err != nil {
				s.protocolErrors++
				return nil
			}
			s.trace(trace.KindUpdateServed, d.Node, env.Update.Record.Node)
			reply := core.Envelope{Type: core.MsgUpdateReply, Record: updated}
			return s.unicast(d.Handle, env.Update.Record.Node, reply)
		}
	case core.MsgUpdateReply:
		if err := ep.ApplyUpdate(env.Record); err != nil {
			s.protocolErrors++
			return nil
		}
		s.trace(trace.KindUpdateApplied, d.Node, msg.FromNode)
		// The refreshed record becomes visible to the fresh nodes heard
		// this round.
		for _, target := range s.a.helloHeardAt(d.Handle) {
			if err := s.sendRecord(d.Handle, ep, target); err != nil {
				return err
			}
		}
	case core.MsgCommitment:
		if err := ep.ReceiveRelationCommitment(env.Commitment); err != nil {
			s.protocolErrors++
			s.trace(trace.KindCommitRejected, d.Node, env.Commitment.From)
		} else {
			s.trace(trace.KindCommitAccepted, d.Node, env.Commitment.From)
		}
	case core.MsgEvidence:
		if ep.Phase() == core.PhaseOperational {
			if err := ep.ReceiveRelationEvidence(env.Evidence); err != nil {
				s.protocolErrors++
			} else {
				s.trace(trace.KindEvidenceBuffered, d.Node, env.Evidence.From)
			}
		}
	default:
		s.protocolErrors++
	}
	return nil
}

// handleRecord validates a binding-record frame at device d in place. A
// frame that does not decode is an error in any phase; a well-formed one
// reaching a node outside discovery is ignored.
func (s *Simulation) handleRecord(d *deploy.Device, ep *core.Node, msg radio.Message, frame []byte) {
	from, err := ep.ReceiveRecordFrame(frame)
	switch {
	case err == nil:
		s.trace(trace.KindRecordAccepted, d.Node, from)
	case errors.Is(err, core.ErrMalformed):
		s.protocolErrors++
		s.trace(trace.KindMalformed, d.Node, msg.FromNode)
	case errors.Is(err, core.ErrPhase):
		// Too late (or early) to matter: not an error.
	default:
		s.protocolErrors++
		s.trace(trace.KindRecordRejected, d.Node, from)
	}
}

// handleHello makes device d answer a fresh node's hello: it returns its
// own binding record and, when eligible, asks the fresh node for a
// binding-record update.
func (s *Simulation) handleHello(d *deploy.Device, ep *core.Node, from nodeid.ID) error {
	if from == d.Node {
		return nil // a replica ignores its original (and vice versa)
	}
	s.a.addHelloHeard(d.Handle, from)

	if ep.Phase() == core.PhaseOperational &&
		!s.params.DisableUpdates &&
		!s.a.updateRequestedAt(d.Handle) &&
		ep.EvidenceCount() > 0 {
		if req, err := ep.BuildUpdateRequest(); err == nil {
			s.a.markUpdateRequested(d.Handle)
			reqEnv := core.Envelope{Type: core.MsgUpdateRequest, Update: req}
			if err := s.unicast(d.Handle, from, reqEnv); err != nil {
				return err
			}
		}
	}
	if ep.Record().Node == nodeid.None {
		return nil // endpoint has no record yet
	}
	return s.sendRecord(d.Handle, ep, from)
}

// sendRecord unicasts device h's current binding record to node to, as
// the cached frame of that record.
func (s *Simulation) sendRecord(h deploy.Handle, ep *core.Node, to nodeid.ID) error {
	frame, err := s.a.recordFrame(h, ep.Record())
	if err != nil {
		return fmt.Errorf("sim: encode unicast: %w", err)
	}
	return s.send(h, to, frame)
}

// broadcast encodes and broadcasts a protocol message.
func (s *Simulation) broadcast(from deploy.Handle, env core.Envelope) error {
	payload, err := env.Encode()
	if err != nil {
		return fmt.Errorf("sim: encode broadcast: %w", err)
	}
	if _, err := s.medium.Broadcast(from, payload); err != nil {
		return fmt.Errorf("sim: broadcast: %w", err)
	}
	return nil
}

// unicast encodes and sends a protocol message to a logical node.
func (s *Simulation) unicast(from deploy.Handle, to nodeid.ID, env core.Envelope) error {
	payload, err := env.Encode()
	if err != nil {
		return fmt.Errorf("sim: encode unicast: %w", err)
	}
	return s.send(from, to, payload)
}

// send optionally seals an encoded frame and unicasts it to a logical
// node. The medium keeps the frame, so callers never write to it again.
func (s *Simulation) send(from deploy.Handle, to nodeid.ID, payload []byte) error {
	if s.params.SecureChannels {
		sealed, ok := s.sealPayload(from, to, payload)
		if !ok {
			s.channelFailures++
			return nil
		}
		payload = sealed
	}
	if _, err := s.medium.Unicast(from, to, payload); err != nil {
		return fmt.Errorf("sim: unicast to %v: %w", to, err)
	}
	return nil
}

// sealPayload encrypts a unicast under the pairwise key of the sending
// device's node and the destination node.
func (s *Simulation) sealPayload(from deploy.Handle, to nodeid.ID, payload []byte) ([]byte, bool) {
	link, ok := s.linkFor(from, to)
	if !ok {
		return nil, false
	}
	sealed, err := link.Seal(payload)
	if err != nil {
		return nil, false
	}
	return sealed, true
}

// openPayload reverses sealPayload at the receiver. Broadcasts (hello) are
// always plaintext; with secure channels enabled, unicasts must open
// correctly or they are dropped.
func (s *Simulation) openPayload(at deploy.Handle, msg radio.Message) ([]byte, bool) {
	if !s.params.SecureChannels || msg.To == nodeid.None {
		return msg.Payload, true
	}
	link, ok := s.linkFor(at, msg.FromNode)
	if !ok {
		return nil, false
	}
	plain, err := link.Open(msg.Payload)
	if err != nil {
		return nil, false
	}
	return plain, true
}

// linkFor lazily builds the secure channel endpoint between a device and a
// peer logical node.
func (s *Simulation) linkFor(h deploy.Handle, peer nodeid.ID) (*crypto.Link, bool) {
	d := s.layout.Device(h)
	if d == nil || d.Node == peer {
		return nil, false
	}
	if l := s.a.linkAt(h, peer); l != nil {
		return l, true
	}
	key, err := s.params.Scheme.KeyFor(d.Node, peer)
	if err != nil {
		return nil, false
	}
	l, err := crypto.NewLink(key, d.Node, peer)
	if err != nil {
		return nil, false
	}
	s.a.putLink(h, peer, l)
	return l, true
}
