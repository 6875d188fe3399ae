// Per-trial state arena.
//
// deploy.Handle is assigned densely from 1, so every piece of per-device
// engine state — protocol endpoints, transceivers, secure-channel link
// tables, and the per-discovery-round scratch — lives in handle-indexed
// slices instead of maps: a lookup is an array index and attaching a
// device is a slice append, with no hashing on the per-message paths.
//
// The slices are bundled into an arena drawn from a process-wide pool
// (mirroring the topology.Builder scratch pool), so experiment sweeps
// that construct one Simulation per trial reuse the previous trial's
// allocations instead of regrowing them. Ownership rule: exactly one
// Simulation owns an arena from New until Close; Close zeroes every
// pointer slot before returning the arena to the pool, so a recycled
// arena can neither leak a finished trial's state to the next trial nor
// pin it against the garbage collector. Simulations that are never
// Closed simply let their arena be collected — the pool is an
// optimization, not a requirement.
package sim

import (
	"sync"

	"snd/internal/core"
	"snd/internal/crypto"
	"snd/internal/deploy"
	"snd/internal/nodeid"
	"snd/internal/radio"
)

// arena is the handle-indexed dense per-trial state of one Simulation.
// Index i holds the state of the device with Handle i+1.
type arena struct {
	// endpoints holds every device's protocol state machine; replica
	// devices run attacker-cloned states.
	endpoints []*core.Node
	// trx holds the radio transceiver of every attached device.
	trx []*radio.Transceiver
	// links lazily holds each device's secure-channel endpoints by peer
	// node; rows stay nil until the first sealed unicast.
	links []map[nodeid.ID]*crypto.Link
	// frames caches each device's encoded MsgRecord frame; see recordFrame.
	frames []recordFrame

	// Per-discovery-round scratch, reset by resetRound:
	// helloHeard lists the fresh node IDs each device heard hellos from
	// (for record re-sends after a binding update); updateRequested marks
	// devices that already asked for an update this round.
	helloHeard      [][]nodeid.ID
	updateRequested []bool
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

func newArena() *arena { return arenaPool.Get().(*arena) }

// release zeroes every pointer slot — pooled memory must never pin a
// finished trial's endpoints or links — and returns the arena to the
// pool. The hello rows keep their capacity: they hold plain IDs, and
// truncation is what makes steady-state rounds allocation-free.
func (a *arena) release() {
	clear(a.endpoints)
	clear(a.trx)
	clear(a.links)
	clear(a.frames)
	for i := range a.helloHeard {
		a.helloHeard[i] = a.helloHeard[i][:0]
	}
	clear(a.updateRequested)
	a.endpoints = a.endpoints[:0]
	a.trx = a.trx[:0]
	a.links = a.links[:0]
	a.frames = a.frames[:0]
	arenaPool.Put(a)
}

// grown extends s so that handle h is indexable, filling with zero values.
func grown[T any](s []T, h deploy.Handle) []T {
	if n := int(h) - len(s); n > 0 {
		s = append(s, make([]T, n)...)
	}
	return s
}

func (a *arena) setEndpoint(h deploy.Handle, ep *core.Node) {
	a.endpoints = grown(a.endpoints, h)
	a.endpoints[h-1] = ep
}

func (a *arena) endpoint(h deploy.Handle) *core.Node {
	if a == nil || h < 1 || int(h) > len(a.endpoints) {
		return nil
	}
	return a.endpoints[h-1]
}

func (a *arena) setTrx(h deploy.Handle, t *radio.Transceiver) {
	a.trx = grown(a.trx, h)
	a.trx[h-1] = t
}

func (a *arena) trxAt(h deploy.Handle) *radio.Transceiver {
	if a == nil || h < 1 || int(h) > len(a.trx) {
		return nil
	}
	return a.trx[h-1]
}

// linkAt returns the cached secure channel of device h toward peer.
func (a *arena) linkAt(h deploy.Handle, peer nodeid.ID) *crypto.Link {
	if h < 1 || int(h) > len(a.links) {
		return nil
	}
	return a.links[h-1][peer]
}

// putLink caches a secure channel, creating the device's row on first use.
func (a *arena) putLink(h deploy.Handle, peer nodeid.ID, l *crypto.Link) {
	a.links = grown(a.links, h)
	if a.links[h-1] == nil {
		a.links[h-1] = make(map[nodeid.ID]*crypto.Link)
	}
	a.links[h-1][peer] = l
}

// recordFrame is one device's encoded MsgRecord frame, keyed by the record
// it encodes. A record only changes by being reissued — BeginDiscovery
// creates version 0, ApplyUpdate installs version i+1 with a fresh
// commitment — so a key mismatch is the whole invalidation rule.
type recordFrame struct {
	node       nodeid.ID
	version    uint32
	commitment crypto.Digest
	frame      []byte
}

// recordFrame returns the MsgRecord frame of device h's current record,
// encoding it only when the record differs from the cached one. The medium
// shares frames with their receivers and nobody writes into a sent frame,
// so every reply a device sends for one record is the same bytes.
func (a *arena) recordFrame(h deploy.Handle, rec core.BindingRecord) ([]byte, error) {
	a.frames = grown(a.frames, h)
	f := &a.frames[h-1]
	if f.frame != nil && f.node == rec.Node && f.version == rec.Version && f.commitment == rec.Commitment {
		return f.frame, nil
	}
	frame, err := core.Envelope{Type: core.MsgRecord, Record: rec}.Encode()
	if err != nil {
		return nil, err
	}
	*f = recordFrame{node: rec.Node, version: rec.Version, commitment: rec.Commitment, frame: frame}
	return frame, nil
}

// resetRound clears the per-round scratch for a layout of n devices,
// keeping row capacity so later rounds append without allocating.
func (a *arena) resetRound(n int) {
	a.helloHeard = grown(a.helloHeard, deploy.Handle(n))
	a.updateRequested = grown(a.updateRequested, deploy.Handle(n))
	for i := range a.helloHeard {
		a.helloHeard[i] = a.helloHeard[i][:0]
	}
	clear(a.updateRequested)
}

func (a *arena) addHelloHeard(h deploy.Handle, from nodeid.ID) {
	a.helloHeard = grown(a.helloHeard, h)
	a.helloHeard[h-1] = append(a.helloHeard[h-1], from)
}

func (a *arena) helloHeardAt(h deploy.Handle) []nodeid.ID {
	if h < 1 || int(h) > len(a.helloHeard) {
		return nil
	}
	return a.helloHeard[h-1]
}

func (a *arena) updateRequestedAt(h deploy.Handle) bool {
	return int(h) <= len(a.updateRequested) && a.updateRequested[h-1]
}

func (a *arena) markUpdateRequested(h deploy.Handle) {
	a.updateRequested = grown(a.updateRequested, h)
	a.updateRequested[h-1] = true
}
