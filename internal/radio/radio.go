// Package radio simulates the shared wireless medium: unit-disk broadcast
// and unicast delivery between deployed devices, probabilistic packet loss,
// attacker jamming regions, and the message/byte accounting behind the
// paper's communication-overhead results.
//
// The medium is safe for concurrent use. Each device attaches a Transceiver
// whose inbox is a growable FIFO with its own lock: it costs nothing until
// frames arrive, and both engines read it with TryRecv — the synchronous
// engine between protocol steps, the goroutine-per-node engine whenever
// the transceiver's Ready signal fires.
package radio

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

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
	// Energy configures per-device energy accounting; the zero value uses
	// DefaultEnergy.
	Energy EnergyModel
}

// EnergyModel prices radio operations in abstract energy units (µJ-scale
// for typical mote radios). Transmission costs a fixed startup plus a
// per-byte rate; reception costs per byte received.
type EnergyModel struct {
	// TxBase is charged per transmission.
	TxBase float64
	// TxPerByte is charged per payload byte transmitted.
	TxPerByte float64
	// RxPerByte is charged per payload byte received.
	RxPerByte float64
}

// DefaultEnergy approximates a CC2420-class mote radio: ~17 µJ
// transmission startup, ~0.6 µJ/byte to send, ~0.67 µJ/byte to receive.
var DefaultEnergy = EnergyModel{TxBase: 17, TxPerByte: 0.6, RxPerByte: 0.67}

func (m EnergyModel) isZero() bool {
	return m.TxBase == 0 && m.TxPerByte == 0 && m.RxPerByte == 0
}

// Message is one received frame.
type Message struct {
	// From is the physical sender.
	From deploy.Handle
	// FromNode is the logical identity the sender claims. The radio layer
	// does not authenticate it — that is the protocol's job.
	FromNode nodeid.ID
	// To is the destination logical ID, or nodeid.None for broadcast.
	To nodeid.ID
	// Payload is the frame body. Receivers must treat it as read-only: all
	// recipients of one transmission share the same backing array, exactly
	// as they share the same radio waveform.
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
	mu      sync.Mutex
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
	if cfg.Energy.isZero() {
		cfg.Energy = DefaultEnergy
	}
	layout.EnsureGrid(cfg.Range)
	return &Medium{
		layout: layout,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// trxAt returns the transceiver of device h, or nil. Callers hold m.mu.
func (m *Medium) trxAt(h deploy.Handle) *Transceiver {
	if h < 1 || int(h) > len(m.trx) {
		return nil
	}
	return m.trx[h-1]
}

// growTo extends the handle-indexed tables so device h is indexable.
// Callers hold m.mu.
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

// Transceiver is one device's interface to the medium.
type Transceiver struct {
	medium *Medium
	handle deploy.Handle
	// queue[head:] are the pending frames, guarded by mu: senders take it
	// under medium.mu, receivers alone, so a pop never waits on other traffic.
	mu    sync.Mutex
	queue []Message
	head  int
	ready chan struct{} // wake-up token; closed on detach
}

// Attach creates (or returns the existing) transceiver for device h.
func (m *Medium) Attach(h deploy.Handle) (*Transceiver, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.trxAt(h); t != nil {
		return t, nil
	}
	if m.layout.Device(h) == nil {
		return nil, fmt.Errorf("radio: attach %d: unknown device", h)
	}
	t := &Transceiver{
		medium: m,
		handle: h,
		ready:  make(chan struct{}, 1),
	}
	m.growTo(h)
	m.trx[h-1] = t
	return t, nil
}

// Detach removes device h's transceiver and closes Ready; queued frames still drain.
func (m *Medium) Detach(h deploy.Handle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.trxAt(h); t != nil {
		close(t.ready)
		m.trx[h-1] = nil
	}
}

// Jam adds a jamming region: no frame whose sender or receiver sits inside
// the circle gets through.
func (m *Medium) Jam(c geometry.Circle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jams = append(m.jams, c)
}

// ClearJamming removes all jamming regions.
func (m *Medium) ClearJamming() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jams = nil
}

// Broadcast transmits payload from device h to every alive attached device
// in range, returning the number of deliveries.
func (m *Medium) Broadcast(h deploy.Handle, payload []byte) (int, error) {
	return m.transmit(h, nodeid.None, payload)
}

// Unicast transmits payload from device h addressed to logical node `to`.
// Every alive attached in-range device claiming that ID receives it — in
// particular, replicas of a node receive unicasts meant for it, which is
// what makes replication attacks work at this layer.
func (m *Medium) Unicast(h deploy.Handle, to nodeid.ID, payload []byte) (int, error) {
	return m.transmit(h, to, payload)
}

func (m *Medium) transmit(h deploy.Handle, to nodeid.ID, payload []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

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

	body := make([]byte, len(payload))
	copy(body, payload)
	msg := Message{From: h, FromNode: sender.Node, To: to, Payload: body}

	m.count.Sent++
	m.count.BytesSent += len(body)
	m.perSend[h-1]++
	m.perByte[h-1] += len(body)
	m.energy[h-1] += m.cfg.Energy.TxBase + m.cfg.Energy.TxPerByte*float64(len(body))

	if m.inJam(sender.Pos) {
		m.count.LostJammed++
		return 0, nil
	}

	// Receivers come from the layout's spatial index: the alive devices in
	// range of the sender, in deployment order — the same set the old scan
	// over every attached transceiver produced, but in O(k) and with a
	// deterministic order, so the loss process below is reproducible per
	// seed instead of following map iteration order.
	delivered := 0
	m.layout.ForEachInRange(h, m.cfg.Range, func(rcv *deploy.Device) {
		t := m.trxAt(rcv.Handle)
		if t == nil {
			return
		}
		if to != nodeid.None && rcv.Node != to {
			return
		}
		if m.inJam(rcv.Pos) {
			m.count.LostJammed++
			return
		}
		if m.cfg.LossProb > 0 && m.rng.Float64() < m.cfg.LossProb {
			m.count.LostRandom++
			return
		}
		t.mu.Lock()
		if len(t.queue)-t.head >= m.cfg.InboxSize {
			t.mu.Unlock()
			m.count.LostOverflow++
			return
		}
		t.queue = append(t.queue, msg)
		t.mu.Unlock()
		select {
		case t.ready <- struct{}{}:
		default:
		}
		delivered++
		m.count.Delivered++
		m.count.BytesDelivered += len(body)
		m.energy[rcv.Handle-1] += m.cfg.Energy.RxPerByte * float64(len(body))
	})
	return delivered, nil
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
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// SentBy returns how many frames device h has transmitted.
func (m *Medium) SentBy(h deploy.Handle) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h < 1 || int(h) > len(m.perSend) {
		return 0
	}
	return m.perSend[h-1]
}

// BytesSentBy returns how many payload bytes device h has transmitted.
func (m *Medium) BytesSentBy(h deploy.Handle) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h < 1 || int(h) > len(m.perByte) {
		return 0
	}
	return m.perByte[h-1]
}

// EnergyUsedBy returns the energy device h has spent on radio activity,
// in the configured model's units.
func (m *Medium) EnergyUsedBy(h deploy.Handle) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h < 1 || int(h) > len(m.energy) {
		return 0
	}
	return m.energy[h-1]
}

// Handle returns the device this transceiver belongs to.
func (t *Transceiver) Handle() deploy.Handle { return t.handle }

// Ready yields after frames are queued, for goroutine-per-node consumers
// that then drain them with TryRecv. It is closed on detach.
func (t *Transceiver) Ready() <-chan struct{} { return t.ready }

// TryRecv pops the oldest pending frame without blocking.
func (t *Transceiver) TryRecv() (Message, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
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

// Send broadcasts from this transceiver's device.
func (t *Transceiver) Send(payload []byte) (int, error) {
	return t.medium.Broadcast(t.handle, payload)
}

// SendTo unicasts from this transceiver's device to the logical node id.
func (t *Transceiver) SendTo(to nodeid.ID, payload []byte) (int, error) {
	return t.medium.Unicast(t.handle, to, payload)
}
