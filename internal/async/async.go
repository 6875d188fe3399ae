// Package async runs the neighbor discovery protocol with one goroutine
// per device — the natural Go concurrency model for sensor-node
// simulation. Every device's event loop drains its own radio queue and
// owns its protocol endpoint exclusively, so no protocol state is ever
// shared between goroutines; the radio medium is the only synchronized
// object, exactly as the shared ether is the only shared medium in the
// field.
//
// The async engine implements the full protocol — hello, record exchange,
// validation, commitments, evidences, and the binding-record update
// extension (operational nodes ask arriving fresh nodes to re-issue their
// records). This package exists to run — and test — the same node logic as
// the deterministic engine under real concurrency, including packet loss,
// where fresh nodes fall back to a discovery timeout.
package async

import (
	"fmt"
	"sync"
	"time"

	"snd/internal/core"
	"snd/internal/crypto"
	"snd/internal/deploy"
	"snd/internal/nodeid"
	"snd/internal/radio"
	"snd/internal/topology"
	"snd/internal/verify"
)

// Config parameterizes an async network.
type Config struct {
	// Threshold is the protocol's t.
	Threshold int
	// MaxUpdates is the protocol's m: operational nodes holding evidence
	// ask newly deployed nodes to re-issue their binding records, up to m
	// times. Zero disables the update extension.
	MaxUpdates int
	// DiscoveryTimeout bounds how long a fresh node waits for missing
	// binding records before validating with what it has (covers packet
	// loss). Default 200 ms.
	DiscoveryTimeout time.Duration
}

// Network runs protocol endpoints over a shared medium, one goroutine per
// device.
type Network struct {
	cfg    Config
	layout *deploy.Layout
	medium *radio.Medium
	master *crypto.MasterKey

	// Runner and stopped-endpoint tables are handle-indexed slices
	// (index = Handle-1, nil = absent): handles are dense small ints, so
	// the per-device lookups stay array reads under the lock.
	mu      sync.Mutex
	runners []*runner
	stopped []*core.Node
}

// NewNetwork wraps an existing layout and medium. The master key is cloned
// into every node at start, mirroring pre-deployment key loading.
func NewNetwork(layout *deploy.Layout, medium *radio.Medium, master *crypto.MasterKey, cfg Config) *Network {
	if cfg.DiscoveryTimeout == 0 {
		cfg.DiscoveryTimeout = 200 * time.Millisecond
	}
	return &Network{
		cfg:    cfg,
		layout: layout,
		medium: medium,
		master: master,
	}
}

// grown extends s so that handle h is indexable, filling with nil.
func grown[T any](s []*T, h deploy.Handle) []*T {
	if n := int(h) - len(s); n > 0 {
		s = append(s, make([]*T, n)...)
	}
	return s
}

// at returns s's entry for handle h, or nil when out of range.
func at[T any](s []*T, h deploy.Handle) *T {
	if h < 1 || int(h) > len(s) {
		return nil
	}
	return s[h-1]
}

// runner is one device's event loop.
type runner struct {
	dev     *deploy.Device
	ep      *core.Node
	trx     *radio.Transceiver
	network *Network

	// expected is the set of tentative neighbors whose records the fresh
	// node is still waiting for (fresh nodes only).
	expected nodeid.Set
	finished chan struct{} // closed when discovery completes
	stop     chan struct{}
	done     chan struct{}
}

// StartResponder spawns the event loop for an already-operational device
// (it answers hellos and processes commitments/evidences). The endpoint is
// owned by the runner from this point on.
func (n *Network) StartResponder(h deploy.Handle, ep *core.Node) error {
	_, err := n.start(h, ep, nil)
	return err
}

// StartDiscovery creates a fresh endpoint for device h, begins discovery
// against the given tentative neighbor set, broadcasts its hello, and
// spawns its event loop. The returned channel closes when the node has
// validated and become operational.
func (n *Network) StartDiscovery(h deploy.Handle, tentative nodeid.Set) (<-chan struct{}, error) {
	ep, err := core.NewNode(n.layout.Device(h).Node, n.master, core.Config{
		Threshold:  n.cfg.Threshold,
		MaxUpdates: n.cfg.MaxUpdates,
	})
	if err != nil {
		return nil, fmt.Errorf("async: endpoint: %w", err)
	}
	if err := ep.BeginDiscovery(tentative); err != nil {
		return nil, fmt.Errorf("async: begin discovery: %w", err)
	}
	r, err := n.start(h, ep, tentative.Clone())
	if err != nil {
		return nil, err
	}
	env := core.Envelope{Type: core.MsgHello, Record: ep.Record()}
	payload, err := env.Encode()
	if err != nil {
		return nil, fmt.Errorf("async: encode hello: %w", err)
	}
	if _, err := n.medium.Broadcast(h, payload); err != nil {
		return nil, fmt.Errorf("async: hello: %w", err)
	}
	return r.finished, nil
}

func (n *Network) start(h deploy.Handle, ep *core.Node, expected nodeid.Set) (*runner, error) {
	dev := n.layout.Device(h)
	if dev == nil {
		return nil, fmt.Errorf("async: unknown device %d", h)
	}
	trx, err := n.medium.Attach(h)
	if err != nil {
		return nil, fmt.Errorf("async: attach: %w", err)
	}
	r := &runner{
		dev:      dev,
		ep:       ep,
		trx:      trx,
		network:  n,
		expected: expected,
		finished: make(chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if at(n.runners, h) != nil {
		return nil, fmt.Errorf("async: device %d already running", h)
	}
	n.runners = grown(n.runners, h)
	n.runners[h-1] = r
	go r.run()
	return r, nil
}

// Endpoint returns the endpoint of a stopped runner. It must only be
// called after Stop, when no goroutine owns the endpoint anymore.
func (n *Network) Endpoint(h deploy.Handle) *core.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return at(n.stopped, h)
}

// Stop terminates every runner and waits for the event loops to exit.
// Stop is idempotent; stopped endpoints remain readable via Endpoint.
func (n *Network) Stop() {
	n.mu.Lock()
	runners := n.runners
	n.runners = nil
	n.mu.Unlock()
	for _, r := range runners {
		if r != nil {
			close(r.stop)
		}
	}
	for _, r := range runners {
		if r != nil {
			<-r.done
		}
	}
	n.mu.Lock()
	for i, r := range runners {
		if r != nil {
			n.stopped = grown(n.stopped, deploy.Handle(i+1))
			n.stopped[i] = r.ep
		}
	}
	n.mu.Unlock()
}

// run is the device event loop. All endpoint access happens here.
func (r *runner) run() {
	defer close(r.done)
	var timeout <-chan time.Time
	if r.expected != nil {
		timer := time.NewTimer(r.network.cfg.DiscoveryTimeout)
		defer timer.Stop()
		timeout = timer.C
		if r.expected.Len() == 0 {
			// No tentative neighbors: validation is trivially done.
			r.finishDiscovery()
		}
	}
	for {
		select {
		case _, open := <-r.trx.Ready():
			for msg, ok := r.trx.TryRecv(); ok; msg, ok = r.trx.TryRecv() {
				r.handle(msg)
			}
			if !open {
				return
			}
		case <-timeout:
			// Lossy medium: some records never arrived. Validate with
			// what we have.
			if r.expected != nil {
				r.finishDiscovery()
			}
		case <-r.stop:
			return
		}
	}
}

func (r *runner) handle(msg radio.Message) {
	env, err := core.DecodeEnvelope(msg.Payload)
	if err != nil {
		return
	}
	switch env.Type {
	case core.MsgHello:
		if env.Record.Node == r.dev.Node {
			return
		}
		// Operational nodes holding fresh evidence seize the arrival of a
		// new node to have their binding record re-issued.
		if r.ep.Phase() == core.PhaseOperational && r.ep.EvidenceCount() > 0 {
			if req, err := r.ep.BuildUpdateRequest(); err == nil {
				r.send(env.Record.Node, core.Envelope{Type: core.MsgUpdateRequest, Update: req})
			}
		}
		rec := r.ep.Record()
		if rec.Node == nodeid.None {
			return
		}
		r.send(env.Record.Node, core.Envelope{Type: core.MsgRecord, Record: rec})
	case core.MsgRecord:
		if r.ep.Phase() != core.PhaseDiscovering {
			return
		}
		if err := r.ep.ReceiveBindingRecord(env.Record); err == nil && r.expected != nil {
			r.expected.Remove(env.Record.Node)
			if r.expected.Len() == 0 {
				r.finishDiscovery()
			}
		}
	case core.MsgUpdateRequest:
		if r.ep.Phase() != core.PhaseDiscovering {
			return
		}
		if updated, err := r.ep.ServeUpdateRequest(env.Update); err == nil {
			r.send(env.Update.Record.Node, core.Envelope{Type: core.MsgUpdateReply, Record: updated})
		}
	case core.MsgUpdateReply:
		// The refreshed record benefits future discovery rounds; unlike
		// the synchronous engine, the async runner does not re-send it to
		// in-flight discoverers.
		_ = r.ep.ApplyUpdate(env.Record)
	case core.MsgCommitment:
		_ = r.ep.ReceiveRelationCommitment(env.Commitment)
	case core.MsgEvidence:
		if r.ep.Phase() == core.PhaseOperational {
			_ = r.ep.ReceiveRelationEvidence(env.Evidence)
		}
	}
}

func (r *runner) finishDiscovery() {
	res, err := r.ep.FinishDiscovery()
	r.expected = nil
	if err != nil {
		close(r.finished)
		return
	}
	for _, c := range res.Commitments {
		r.send(c.To, core.Envelope{Type: core.MsgCommitment, Commitment: c})
	}
	for _, ev := range res.Evidences {
		r.send(ev.To, core.Envelope{Type: core.MsgEvidence, Evidence: ev})
	}
	close(r.finished)
}

func (r *runner) send(to nodeid.ID, env core.Envelope) {
	payload, err := env.Encode()
	if err != nil {
		return
	}
	// Dead devices cannot transmit; errors here mirror a dark radio.
	_, _ = r.network.medium.Unicast(r.dev.Handle, to, payload)
}

// DiscoverAll is a convenience driver: it deploys nothing itself but runs
// discovery for every device of the layout concurrently — the whole
// network boots at once, every node a goroutine — and returns the
// functional topology once all nodes are operational.
func DiscoverAll(layout *deploy.Layout, medium *radio.Medium, master *crypto.MasterKey, cfg Config, verifier verify.Verifier) (*topology.Graph, error) {
	n := NewNetwork(layout, medium, master, cfg)
	tent := verify.TentativeGraph(layout, verifier, medium.Range())

	var waits []<-chan struct{}
	var handles []deploy.Handle
	for _, d := range layout.Devices() {
		if !d.Alive || d.Replica {
			continue
		}
		ch, err := n.StartDiscovery(d.Handle, tent.Out(d.Node))
		if err != nil {
			return nil, err
		}
		waits = append(waits, ch)
		handles = append(handles, d.Handle)
	}
	for _, ch := range waits {
		<-ch
	}
	// Allow in-flight commitments to land, then stop the loops.
	time.Sleep(n.cfg.DiscoveryTimeout)
	n.Stop()

	b := topology.NewBuilder()
	for _, h := range handles {
		ep := n.Endpoint(h)
		if ep == nil {
			continue
		}
		b.AddNode(ep.ID())
		for v := range ep.Functional() {
			b.AddRelation(ep.ID(), v)
		}
	}
	return b.Finalize(), nil
}
