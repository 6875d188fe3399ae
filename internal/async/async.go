// Package async runs the neighbor discovery protocol with one goroutine
// per device — the natural Go concurrency model for sensor-node
// simulation. Every device's event loop owns its protocol endpoint
// exclusively, so no protocol state is ever shared between goroutines. The
// radio medium, the only shared object, has a single owner, the Network:
// every attach, transmission and receive on it happens under the
// network's one lock, exactly as the shared ether is the only shared
// medium in the field.
//
// The async engine implements the full protocol — hello, record exchange,
// validation, commitments, evidences, and the binding-record update
// extension (operational nodes ask arriving fresh nodes to re-issue their
// records). This package exists to run — and test — the same node logic as
// the deterministic engine under real concurrency, including packet loss.
// Time plays no part: the trusted discovery window ends when the network
// settles (see Network.Settle), and a node whose records were lost then
// validates with what it heard.
package async

import (
	"fmt"
	"sync"

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
}

// Network runs protocol endpoints over a shared medium, one goroutine per
// device. From NewNetwork on it is the medium's owner: nothing else may
// use the medium until Stop, and the medium's queues are empty when the
// network takes it over.
type Network struct {
	cfg    Config
	layout *deploy.Layout
	medium *radio.Medium
	master *crypto.MasterKey

	// mu guards the medium and everything below. Runner and
	// stopped-endpoint tables are handle-indexed slices (index = Handle-1,
	// nil = absent): handles are dense small ints, so the per-device
	// lookups stay array reads under the lock.
	mu      sync.Mutex
	runners []*runner
	stopped []*core.Node
	// queued counts the frames delivered and not yet popped by a runner,
	// busy the runners handling frames or finishing discovery. Both zero
	// means nothing can happen until someone outside the network acts:
	// quiet is then broadcast.
	queued int
	busy   int
	quiet  sync.Cond
}

// NewNetwork wraps an existing layout and medium. The master key is cloned
// into every node at start, mirroring pre-deployment key loading.
func NewNetwork(layout *deploy.Layout, medium *radio.Medium, master *crypto.MasterKey, cfg Config) *Network {
	n := &Network{
		cfg:    cfg,
		layout: layout,
		medium: medium,
		master: master,
	}
	n.quiet.L = &n.mu
	return n
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
	ready   <-chan struct{}
	network *Network

	// expected is the set of tentative neighbors whose records the node
	// is still waiting for; nil once discovery has finished.
	expected map[nodeid.ID]bool
	finished chan struct{} // closed when discovery completes
	finish   chan struct{} // a request, counted in busy, to finish discovery now
	stop     chan struct{}
	done     chan struct{}
}

// StartDiscovery creates a fresh endpoint for device h, begins discovery
// against the given tentative neighbor set, broadcasts its hello, and
// spawns its event loop. The returned channel closes when the node has
// validated and become operational.
func (n *Network) StartDiscovery(h deploy.Handle, tentative nodeid.Set) (<-chan struct{}, error) {
	dev := n.layout.Device(h)
	if dev == nil {
		return nil, fmt.Errorf("async: unknown device %d", h)
	}
	ep, err := core.NewNode(dev.Node, n.master, core.Config{
		Threshold:  n.cfg.Threshold,
		MaxUpdates: n.cfg.MaxUpdates,
	})
	if err != nil {
		return nil, fmt.Errorf("async: endpoint: %w", err)
	}
	if err := ep.BeginDiscovery(tentative); err != nil {
		return nil, fmt.Errorf("async: begin discovery: %w", err)
	}
	// The hello is encoded while ep is still ours: the runner owns it once
	// started.
	hello, err := core.Envelope{Type: core.MsgHello, Record: ep.Record()}.Encode()
	if err != nil {
		return nil, fmt.Errorf("async: encode hello: %w", err)
	}
	expected := make(map[nodeid.ID]bool, tentative.Len())
	for _, v := range tentative {
		expected[v] = true
	}
	return n.start(dev, ep, expected, hello)
}

// start registers and spawns the device's runner after broadcasting its
// hello. A node with no tentative neighbors has nothing to wait for, so
// its first act is to finish discovery.
func (n *Network) start(dev *deploy.Device, ep *core.Node, expected map[nodeid.ID]bool, hello []byte) (<-chan struct{}, error) {
	h := dev.Handle
	n.mu.Lock()
	defer n.mu.Unlock()
	if at(n.runners, h) != nil {
		return nil, fmt.Errorf("async: device %d already running", h)
	}
	trx, err := n.medium.Attach(h)
	if err != nil {
		return nil, fmt.Errorf("async: attach: %w", err)
	}
	k, err := n.medium.Broadcast(h, hello)
	if err != nil {
		return nil, fmt.Errorf("async: hello: %w", err)
	}
	n.queued += k
	r := &runner{
		dev:      dev,
		ep:       ep,
		trx:      trx,
		ready:    trx.Ready(),
		network:  n,
		expected: expected,
		finished: make(chan struct{}),
		finish:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if len(expected) == 0 {
		n.busy++
		r.finish <- struct{}{}
	}
	n.runners = grown(n.runners, h)
	n.runners[h-1] = r
	go r.run()
	return r.finished, nil
}

// Settle blocks until the network is quiet — no frame queued at any
// runner and no runner handling one — with every started node
// operational. It is the goroutine-per-node counterpart of the
// deterministic engine's pump running to its fixed point: once the network
// is quiet, every record a discovering node could still receive has been
// delivered or lost, so Settle has each such node validate with what it
// holds, waits for the commitments and evidences that produces to land,
// and repeats until no node is left discovering. Settle must not overlap
// Stop.
func (n *Network) Settle() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		for n.busy > 0 || n.queued > 0 {
			n.quiet.Wait()
		}
		finishing := false
		for _, r := range n.runners {
			if r == nil {
				continue
			}
			select {
			case <-r.finished:
			default:
				// Quiet means no token is pending, so this never blocks.
				n.busy++
				r.finish <- struct{}{}
				finishing = true
			}
		}
		if !finishing {
			return
		}
	}
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

// run is the device event loop. All endpoint access happens here, and
// the medium is touched only under the network's lock: a wake drains the
// whole queue in one hold of it, and the frames are handled outside it.
func (r *runner) run() {
	defer close(r.done)
	n := r.network
	var batch []radio.Message
	for {
		select {
		case <-r.ready:
			n.mu.Lock()
			for msg, ok := r.trx.TryRecv(); ok; msg, ok = r.trx.TryRecv() {
				batch = append(batch, msg)
			}
			if len(batch) == 0 { // a token left over from an earlier drain
				n.mu.Unlock()
				continue
			}
			n.queued -= len(batch)
			n.busy++
			n.mu.Unlock()
			for _, msg := range batch {
				r.handle(msg)
			}
			clear(batch) // unpin the payloads
			batch = batch[:0]
		case <-r.finish:
			// No record can arrive anymore (or none was expected):
			// validate with what we have.
			if r.expected != nil {
				r.finishDiscovery()
			}
		case <-r.stop:
			return
		}
		n.mu.Lock()
		if n.busy--; n.busy == 0 && n.queued == 0 {
			n.quiet.Broadcast()
		}
		n.mu.Unlock()
	}
}

func (r *runner) handle(msg radio.Message) {
	if len(msg.Payload) > 0 {
		// Hellos and records are validated in place, without decoding.
		switch core.MsgType(msg.Payload[0]) {
		case core.MsgHello:
			if from, err := core.HelloSender(msg.Payload); err == nil {
				r.handleHello(from)
			}
			return
		case core.MsgRecord:
			if from, err := r.ep.ReceiveRecordFrame(msg.Payload); err == nil && r.expected != nil {
				delete(r.expected, from)
				if len(r.expected) == 0 {
					r.finishDiscovery()
				}
			}
			return
		}
	}
	env, err := core.DecodeEnvelope(msg.Payload)
	if err != nil {
		return
	}
	switch env.Type {
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

// handleHello answers a fresh node's hello with this node's record.
// Operational nodes holding fresh evidence also seize the arrival of a new
// node to have their binding record re-issued.
func (r *runner) handleHello(from nodeid.ID) {
	if from == r.dev.Node {
		return
	}
	if r.ep.Phase() == core.PhaseOperational && r.ep.EvidenceCount() > 0 {
		if req, err := r.ep.BuildUpdateRequest(); err == nil {
			r.send(from, core.Envelope{Type: core.MsgUpdateRequest, Update: req})
		}
	}
	rec := r.ep.Record()
	if rec.Node == nodeid.None {
		return
	}
	r.send(from, core.Envelope{Type: core.MsgRecord, Record: rec})
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
	n := r.network
	n.mu.Lock()
	// Dead devices cannot transmit; errors here mirror a dark radio.
	k, _ := n.medium.Unicast(r.dev.Handle, to, payload)
	n.queued += k
	n.mu.Unlock()
}

// DiscoverAll is a convenience driver: it deploys nothing itself but runs
// discovery for every device of the layout concurrently — the whole
// network boots at once, every node a goroutine — and returns the
// functional topology once the network has settled.
func DiscoverAll(layout *deploy.Layout, medium *radio.Medium, master *crypto.MasterKey, cfg Config, verifier verify.Verifier) (*topology.Graph, error) {
	n := NewNetwork(layout, medium, master, cfg)
	tent := verify.TentativeGraph(layout, verifier, medium.Range())

	var handles []deploy.Handle
	for _, d := range layout.Devices() {
		if !d.Alive || d.Replica {
			continue
		}
		if _, err := n.StartDiscovery(d.Handle, tent.Out(d.Node)); err != nil {
			n.Stop()
			return nil, err
		}
		handles = append(handles, d.Handle)
	}
	n.Settle()
	n.Stop()

	b := topology.NewBuilder()
	for _, h := range handles {
		ep := n.Endpoint(h)
		if ep == nil {
			continue
		}
		b.AddNode(ep.ID())
		for _, v := range ep.Functional() {
			b.AddRelation(ep.ID(), v)
		}
	}
	return b.Finalize(), nil
}
