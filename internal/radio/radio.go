// Package radio simulates the shared wireless medium: unit-disk broadcast
// and unicast delivery between deployed devices, probabilistic packet loss,
// attacker jamming regions, and the message/byte accounting behind the
// paper's communication-overhead results.
//
// Receivers are resolved per frame. A broadcast sweeps the layout's spatial
// index for the alive devices in range of the sender. A unicast to node v
// walks only the devices claiming v — its primary and any replicas — and
// keeps those the sweep would have found: not the sender, alive and in
// range. Both visit receivers in ascending handle order, so a unicast
// applies its jam checks and loss draws exactly as a filtered broadcast
// would, at O(1 + replicas) cost.
//
// Frames travel by reference. A transmission keeps the caller's payload
// slice as is: every receiver of it, and of every other transmission of the
// same slice, reads the same bytes, so a frame costs one buffer however
// many receivers hear it and however often it is sent. In exchange the
// caller hands the slice over with the call and must not write to it
// afterwards; receivers treat it as read-only.
//
// A medium has a single owner. It takes no locks: every call on a Medium
// and its Transceivers — Attach, sends, TryRecv, the counters and the first
// Ready — must come from one goroutine at a time, with a happens-before
// edge between successive callers. The deterministic engine owns its medium
// outright from one goroutine; the goroutine-per-node engine makes every
// call under its network's one lock. Each device attaches a Transceiver
// whose inbox is a growable FIFO: it costs nothing until frames arrive,
// and the owner drains it with TryRecv. Only the Ready channel, created on
// first request, is meant to be waited on from another goroutine.
package radio

import (
	"errors"
	"fmt"
	"math/rand"

	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
)

// Errors callers match on.
var (
	// ErrNotAttached means the device has no transceiver on this medium.
	ErrNotAttached = errors.New("radio: device not attached")
	// ErrDeviceDead means the sending device is not alive.
	ErrDeviceDead = errors.New("radio: device not alive")
)

// defaultInboxSize bounds the frames pending at one transceiver. It models
// a radio driver's finite receive queue: a delivery to a full queue is
// dropped (counted in Counters.LostOverflow) rather than blocking the
// sender, which is how a contention-free MAC with finite buffers degrades.
const defaultInboxSize = 1024

// Config parameterizes a medium.
type Config struct {
	// Range is the maximum radio range R in meters.
	Range float64
	// LossProb is the probability an individual delivery is lost.
	LossProb float64
	// InboxSize bounds the frames pending per transceiver (default 1024).
	InboxSize int
	// Seed drives the loss process for reproducible runs.
	Seed int64
}

// Energy prices of radio operations, in µJ, approximating a CC2420-class
// mote radio: a transmission costs a fixed startup plus a per-byte rate,
// a reception a per-byte rate.
const (
	txBase    = 17   // charged per transmission
	txPerByte = 0.6  // charged per payload byte transmitted
	rxPerByte = 0.67 // charged per payload byte received
)

// Message is one received frame.
type Message struct {
	// From is the physical sender.
	From deploy.Handle
	// FromNode is the logical identity the sender claims. The radio layer
	// does not authenticate it — that is the protocol's job.
	FromNode nodeid.ID
	// To is the destination logical ID, or nodeid.None for broadcast.
	To nodeid.ID
	// Payload is the frame body. Receivers must treat it as read-only: it
	// is the sender's slice itself, shared by every recipient of every
	// transmission of that frame, exactly as they share one waveform.
	Payload []byte
}

// Counters aggregates medium statistics.
type Counters struct {
	Sent           int
	Delivered      int
	LostRandom     int
	LostJammed     int
	LostOverflow   int
	BytesSent      int
	BytesDelivered int
}

// Medium is the shared channel connecting the attached transceivers of a
// deployment layout.
//
// Per-device accounting is handle-indexed: handles are dense small ints,
// so the transceiver table and the send/byte/energy counters live in
// slices (index = Handle-1) grown on attach — a per-delivery counter
// bump is an array write, not a map insertion.
type Medium struct {
	layout  *deploy.Layout
	cfg     Config
	rng     *rand.Rand
	trx     []*Transceiver
	jams    []geometry.Circle
	count   Counters
	perSend []int
	perByte []int
	energy  []float64
}

// NewMedium builds a medium over the given layout. It also equips the
// layout with its uniform-grid spatial index at cell size Range (a no-op
// if one exists), so every transmission resolves its receivers with an
// O(k) neighborhood sweep instead of a scan over all attached devices.
func NewMedium(layout *deploy.Layout, cfg Config) *Medium {
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = defaultInboxSize
	}
	layout.EnsureGrid(cfg.Range)
	return &Medium{
		layout: layout,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// trxAt returns the transceiver of device h, or nil.
func (m *Medium) trxAt(h deploy.Handle) *Transceiver {
	if h < 1 || int(h) > len(m.trx) {
		return nil
	}
	return m.trx[h-1]
}

// growTo extends the handle-indexed tables so device h is indexable.
func (m *Medium) growTo(h deploy.Handle) {
	for len(m.trx) < int(h) {
		m.trx = append(m.trx, nil)
		m.perSend = append(m.perSend, 0)
		m.perByte = append(m.perByte, 0)
		m.energy = append(m.energy, 0)
	}
}

// Range returns the configured radio range.
func (m *Medium) Range() float64 { return m.cfg.Range }

// Transceiver is one device's receive side of the medium: frames reaching
// the device queue here until its owner drains them. Devices transmit
// through Medium.Broadcast and Medium.Unicast.
type Transceiver struct {
	// queue[head:] are the pending frames.
	queue []Message
	head  int
	ready chan struct{} // wake-up token; nil until the first Ready call
}

// Attach creates (or returns the existing) transceiver for device h.
func (m *Medium) Attach(h deploy.Handle) (*Transceiver, error) {
	if t := m.trxAt(h); t != nil {
		return t, nil
	}
	if m.layout.Device(h) == nil {
		return nil, fmt.Errorf("radio: attach %d: unknown device", h)
	}
	t := &Transceiver{}
	m.growTo(h)
	m.trx[h-1] = t
	return t, nil
}

// Jam adds a jamming region: no frame whose sender or receiver sits inside
// the circle gets through.
func (m *Medium) Jam(c geometry.Circle) {
	m.jams = append(m.jams, c)
}

// Broadcast transmits payload from device h to every alive attached device
// in range, returning the number of deliveries. The medium keeps payload
// itself, not a copy: the caller must not write to it afterwards.
func (m *Medium) Broadcast(h deploy.Handle, payload []byte) (int, error) {
	return m.transmit(h, nodeid.None, payload)
}

// Unicast transmits payload from device h addressed to logical node `to`.
// Every alive attached in-range device claiming that ID receives it — in
// particular, replicas of a node receive unicasts meant for it, which is
// what makes replication attacks work at this layer. As with Broadcast, the
// receivers share payload itself and the caller must not write to it
// afterwards.
func (m *Medium) Unicast(h deploy.Handle, to nodeid.ID, payload []byte) (int, error) {
	return m.transmit(h, to, payload)
}

func (m *Medium) transmit(h deploy.Handle, to nodeid.ID, payload []byte) (int, error) {
	sender := m.layout.Device(h)
	if sender == nil {
		return 0, fmt.Errorf("radio: send from %d: unknown device", h)
	}
	if m.trxAt(h) == nil {
		return 0, fmt.Errorf("radio: send from %d: %w", h, ErrNotAttached)
	}
	if !sender.Alive {
		return 0, fmt.Errorf("radio: send from %d: %w", h, ErrDeviceDead)
	}

	msg := Message{From: h, FromNode: sender.Node, To: to, Payload: payload}

	m.count.Sent++
	m.count.BytesSent += len(payload)
	m.perSend[h-1]++
	m.perByte[h-1] += len(payload)
	m.energy[h-1] += txBase + txPerByte*float64(len(payload))

	if m.inJam(sender.Pos) {
		m.count.LostJammed++
		return 0, nil
	}

	delivered := 0
	if to == nodeid.None {
		// A broadcast reaches every alive device in range of the sender,
		// from the layout's spatial index in deployment order, so the loss
		// process below is reproducible per seed.
		m.layout.ForEachInRange(h, m.cfg.Range, func(rcv *deploy.Device) {
			if m.deliver(rcv, msg) {
				delivered++
			}
		})
		return delivered, nil
	}
	// A unicast can only reach devices claiming `to`, so it walks those —
	// the primary and any replicas, in ascending handle order — and keeps
	// the ones the range sweep would have reported: not the sender, alive,
	// and in range. Same receivers, same order, same loss draws, in O(1 +
	// replicas) instead of a neighborhood sweep and sort.
	r := m.cfg.Range
	m.layout.ForEachDeviceOf(to, func(rcv *deploy.Device) {
		if rcv.Handle != h && rcv.Alive && r >= 0 && sender.Pos.InRange(rcv.Pos, r) && m.deliver(rcv, msg) {
			delivered++
		}
	})
	return delivered, nil
}

// deliver queues msg at receiver rcv unless rcv is unattached, jammed,
// loses the loss draw or has a full inbox, and does the accounting. It
// reports whether the frame was queued, and wakes a waiting consumer if
// the transceiver has handed out a Ready channel.
func (m *Medium) deliver(rcv *deploy.Device, msg Message) bool {
	t := m.trxAt(rcv.Handle)
	if t == nil {
		return false
	}
	if m.inJam(rcv.Pos) {
		m.count.LostJammed++
		return false
	}
	if m.cfg.LossProb > 0 && m.rng.Float64() < m.cfg.LossProb {
		m.count.LostRandom++
		return false
	}
	if len(t.queue)-t.head >= m.cfg.InboxSize {
		m.count.LostOverflow++
		return false
	}
	t.queue = append(t.queue, msg)
	if t.ready != nil {
		select {
		case t.ready <- struct{}{}:
		default:
		}
	}
	n := len(msg.Payload)
	m.count.Delivered++
	m.count.BytesDelivered += n
	m.energy[rcv.Handle-1] += rxPerByte * float64(n)
	return true
}

func (m *Medium) inJam(p geometry.Point) bool {
	for _, c := range m.jams {
		if c.Contains(p) {
			return true
		}
	}
	return false
}

// Counters returns a snapshot of the medium statistics.
func (m *Medium) Counters() Counters {
	return m.count
}

// SentBy returns how many frames device h has transmitted.
func (m *Medium) SentBy(h deploy.Handle) int {
	if h < 1 || int(h) > len(m.perSend) {
		return 0
	}
	return m.perSend[h-1]
}

// BytesSentBy returns how many payload bytes device h has transmitted.
func (m *Medium) BytesSentBy(h deploy.Handle) int {
	if h < 1 || int(h) > len(m.perByte) {
		return 0
	}
	return m.perByte[h-1]
}

// EnergyUsedBy returns the energy device h has spent on radio activity,
// in the configured model's units.
func (m *Medium) EnergyUsedBy(h deploy.Handle) float64 {
	if h < 1 || int(h) > len(m.energy) {
		return 0
	}
	return m.energy[h-1]
}

// Ready returns a channel that yields a token after frames are queued,
// for a consumer goroutine that waits for traffic and then, as the
// medium's owner, drains it with TryRecv. A token may outlive the frames
// that raised it, so a wake can find the queue empty. The channel is made
// on the first call, which is an owner's call like any other; a medium
// whose transceivers never ask allocates and signals none.
func (t *Transceiver) Ready() <-chan struct{} {
	if t.ready == nil {
		t.ready = make(chan struct{}, 1)
		if t.head < len(t.queue) {
			t.ready <- struct{}{}
		}
	}
	return t.ready
}

// TryRecv pops the oldest pending frame without blocking.
func (t *Transceiver) TryRecv() (Message, bool) {
	if t.head == len(t.queue) {
		return Message{}, false
	}
	msg := t.queue[t.head]
	t.queue[t.head] = Message{} // unpin the payload
	t.head++
	if t.head == len(t.queue) { // drained: reuse the backing array
		t.queue, t.head = t.queue[:0], 0
	}
	return msg, true
}
