package sim

import (
	"fmt"
	"strings"
	"sync"

	"snd/internal/nodeid"
)

// Kind classifies a protocol event.
type Kind int

// Protocol event kinds, in rough lifecycle order.
const (
	// KindHello: a fresh node broadcast its binding record.
	KindHello Kind = iota + 1
	// KindRecordAccepted: a binding record authenticated under K.
	KindRecordAccepted
	// KindRecordRejected: a binding record failed authentication or
	// arrived from outside N(u).
	KindRecordRejected
	// KindValidated: a node admitted a peer to its functional list during
	// FinishDiscovery.
	KindValidated
	// KindCommitAccepted: a relation commitment verified under K_v.
	KindCommitAccepted
	// KindCommitRejected: a relation commitment failed verification.
	KindCommitRejected
	// KindEvidenceBuffered: relation evidence stored for a later update.
	KindEvidenceBuffered
	// KindUpdateServed: a fresh node re-issued an old node's record.
	KindUpdateServed
	// KindUpdateApplied: an old node installed its updated record.
	KindUpdateApplied
	// KindMalformed: an undecodable or unexpected frame was dropped.
	KindMalformed
)

// maxKind is the highest defined event kind; Counts sizes its array by it.
const maxKind = KindMalformed

// Kinds returns every defined event kind in lifecycle order — the stable
// iteration order for printing per-kind statistics.
func Kinds() []Kind {
	out := make([]Kind, 0, maxKind)
	for k := KindHello; k <= maxKind; k++ {
		out = append(out, k)
	}
	return out
}

var kindNames = map[Kind]string{
	KindHello:            "hello",
	KindRecordAccepted:   "record-accepted",
	KindRecordRejected:   "record-rejected",
	KindValidated:        "validated",
	KindCommitAccepted:   "commit-accepted",
	KindCommitRejected:   "commit-rejected",
	KindEvidenceBuffered: "evidence-buffered",
	KindUpdateServed:     "update-served",
	KindUpdateApplied:    "update-applied",
	KindMalformed:        "malformed",
}

// String returns the event kind's stable name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded protocol step.
type Event struct {
	// Seq is the recorder-assigned sequence number, starting at 1.
	Seq uint64
	// Kind classifies the step.
	Kind Kind
	// Node is the acting node (the one whose state changed).
	Node nodeid.ID
	// Peer is the counterparty, if any.
	Peer nodeid.ID
	// Round is the deployment round during which the event fired.
	Round int
}

// String renders the event as a log line.
func (e Event) String() string {
	if e.Peer == nodeid.None {
		return fmt.Sprintf("#%d r%d %s %v", e.Seq, e.Round, e.Kind, e.Node)
	}
	return fmt.Sprintf("#%d r%d %s %v<-%v", e.Seq, e.Round, e.Kind, e.Node, e.Peer)
}

// Recorder receives protocol events. The simulation calls Record from the
// one goroutine that runs it, so an implementation needs no
// synchronization of its own unless it is shared between simulations
// running in parallel.
type Recorder interface {
	Record(e Event)
}

// Counts keeps per-kind event tallies. Every Simulation owns one and
// feeds it every event it emits (see Simulation.EventCounts); Record is
// one array increment. It is not safe for concurrent use. The zero value
// is ready to use.
type Counts struct {
	n     [maxKind + 1]int64
	other int64 // events with an out-of-range kind
}

var _ Recorder = (*Counts)(nil)

// Record implements Recorder.
func (c *Counts) Record(e Event) {
	if e.Kind >= 1 && e.Kind <= maxKind {
		c.n[e.Kind]++
		return
	}
	c.other++
}

// Count returns the tally for one kind.
func (c *Counts) Count(k Kind) int64 {
	if k < 1 || k > maxKind {
		return 0
	}
	return c.n[k]
}

// Total returns the lifetime event count across all kinds.
func (c *Counts) Total() int64 {
	total := c.other
	for k := KindHello; k <= maxKind; k++ {
		total += c.n[k]
	}
	return total
}

// Snapshot returns the nonzero tallies keyed by kind.
func (c *Counts) Snapshot() map[Kind]int64 {
	out := make(map[Kind]int64)
	for k := KindHello; k <= maxKind; k++ {
		if n := c.n[k]; n > 0 {
			out[k] = n
		}
	}
	return out
}

// Ring is a bounded in-memory recorder keeping the most recent events in
// a circular buffer. It is safe for concurrent use, so one ring can
// collect the events of several simulations. The zero value is unusable;
// call NewRing.
type Ring struct {
	mu    sync.Mutex
	buf   []Event // retained events; once full, buf[start] is the oldest
	start int
	next  uint64
}

var _ Recorder = (*Ring)(nil)

// NewRing builds a recorder retaining up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Record implements Recorder. A full ring overwrites its oldest event.
func (r *Ring) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	e.Seq = r.next
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.start] = e
		r.start = (r.start + 1) % len(r.buf)
	}
}

// Events returns a copy of the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	return append(out, r.buf[:r.start]...)
}

// Dump renders the retained events as a multi-line log.
func (r *Ring) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
