package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

// Protocol errors callers match on.
var (
	// ErrPhase means an operation was invoked in the wrong protocol phase.
	ErrPhase = errors.New("core: operation not valid in this protocol phase")
	// ErrBadRecord means a binding record failed authentication against K.
	ErrBadRecord = errors.New("core: binding record failed authentication")
	// ErrBadCommitment means a relation commitment failed verification
	// against this node's verification key.
	ErrBadCommitment = errors.New("core: relation commitment failed verification")
	// ErrBadEvidence means a relation evidence failed authentication.
	ErrBadEvidence = errors.New("core: relation evidence failed authentication")
	// ErrUpdateLimit means a binding record has exhausted its update budget.
	ErrUpdateLimit = errors.New("core: binding record update limit reached")
	// ErrNotTentative means a record arrived from a node outside N(u).
	ErrNotTentative = errors.New("core: record from node outside tentative list")
)

// Config parameterizes the protocol.
type Config struct {
	// Threshold is the paper's t: validating a neighbor requires at least
	// t+1 common tentative neighbors. With at most t compromised nodes the
	// protocol guarantees 2R-safety (Theorem 3).
	Threshold int
	// MaxUpdates is the paper's m: the maximum number of binding-record
	// updates a node may receive, bounding the safety radius at (m+1)·R
	// (Theorem 4). Zero disables the update extension.
	MaxUpdates int
}

// Phase tracks a node's progress through the protocol.
type Phase int

// Protocol phases, in lifecycle order.
const (
	// PhaseInitialized: pre-loaded with K, not yet deployed.
	PhaseInitialized Phase = iota + 1
	// PhaseDiscovering: deployed, collecting neighbors' binding records;
	// still holds K.
	PhaseDiscovering
	// PhaseOperational: discovery finished, K erased.
	PhaseOperational
)

// String returns the phase's stable name.
func (p Phase) String() string {
	switch p {
	case PhaseInitialized:
		return "initialized"
	case PhaseDiscovering:
		return "discovering"
	case PhaseOperational:
		return "operational"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Node is the per-node protocol state machine. A Node is the logical
// protocol endpoint; the attacker's Clone of an operational node is what a
// replica device runs. Node is not safe for concurrent use — each simulated
// device drives its own instance.
type Node struct {
	id     nodeid.ID
	cfg    Config
	phase  Phase
	master *crypto.MasterKey
	vkey   crypto.VerificationKey

	record BindingRecord
	// functional is N̄(u), kept ascending. It is this node's private
	// scratch list — it grows as commitments arrive — so Functional hands
	// out a copy rather than sharing it.
	functional []nodeid.ID
	// pending holds what validation needs of each authenticated binding
	// record collected during discovery, one slot per tentative neighbor:
	// pending[i] is from record.Neighbors[i]. It is sized once by
	// BeginDiscovery and dropped by FinishDiscovery.
	pending []pendingRecord
	// own counts common neighbors against N(u) while records arrive. It is
	// built by BeginDiscovery and dropped by FinishDiscovery.
	own nodeid.Counter
	// evidence buffers authenticated relation evidences received since the
	// last binding-record update, one per issuer, sorted by issuer. It is
	// allocated on the first insert, with room for every tentative neighbor.
	evidence []RelationEvidence

	hashOps int
}

// pendingRecord is all a node keeps of an accepted R(v) until
// FinishDiscovery: the version i, the size of R(v) — which the two-phase
// storage metric still charges — and the common count |N(u) ∩ N(v)|. A zero
// size marks a slot still empty, since every record has a nonzero size.
type pendingRecord struct {
	version uint32
	size    uint32 // R(v).StorageBytes()
	common  uint32
}

// NewNode initializes a node before deployment: it is loaded with its own
// copy of the master key and computes its verification key K_u.
func NewNode(id nodeid.ID, master *crypto.MasterKey, cfg Config) (*Node, error) {
	if id == nodeid.None {
		return nil, errors.New("core: node needs a non-reserved ID")
	}
	if master == nil || master.Erased() {
		return nil, errors.New("core: node needs a live master key copy")
	}
	if cfg.Threshold < 0 || cfg.MaxUpdates < 0 {
		return nil, fmt.Errorf("core: negative config %+v", cfg)
	}
	n := &Node{
		id:     id,
		cfg:    cfg,
		phase:  PhaseInitialized,
		master: master.Clone(),
	}
	vk, err := n.master.VerificationKey(id)
	if err != nil {
		return nil, fmt.Errorf("core: compute K_u: %w", err)
	}
	n.hashOps++
	n.vkey = vk
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() nodeid.ID { return n.id }

// Phase returns the node's current protocol phase.
func (n *Node) Phase() Phase { return n.phase }

// Record returns the node's current binding record R(u). Its neighbor
// list is shared, immutable storage.
func (n *Node) Record() BindingRecord { return n.record }

// Functional returns a copy of the functional neighbor list N̄(u).
func (n *Node) Functional() nodeid.Set { return slices.Clone(n.functional) }

// addFunctional inserts v into the ascending functional list.
func (n *Node) addFunctional(v nodeid.ID) {
	if i, found := slices.BinarySearch(n.functional, v); !found {
		n.functional = slices.Insert(n.functional, i, v)
	}
}

// HashOps returns the number of hash computations performed, the paper's
// computation-overhead metric.
func (n *Node) HashOps() int { return n.hashOps }

// HoldsMasterKey reports whether K is still present (i.e. erasure has not
// happened yet). After FinishDiscovery this is always false.
func (n *Node) HoldsMasterKey() bool { return n.master != nil && !n.master.Erased() }

// BeginDiscovery starts the discovery phase with the tentative neighbor
// list produced by direct verification, creating the version-0 binding
// record. The record keeps its own copy of the list.
func (n *Node) BeginDiscovery(tentative nodeid.Set) error {
	if n.phase != PhaseInitialized {
		return fmt.Errorf("%w: BeginDiscovery in phase %d", ErrPhase, n.phase)
	}
	neighbors := tentative.Diff(nodeid.Set{n.id})
	c, err := n.master.BindingCommitment(n.id, 0, neighbors)
	if err != nil {
		return fmt.Errorf("core: commit binding record: %w", err)
	}
	n.hashOps++
	n.record = BindingRecord{Node: n.id, Version: 0, Neighbors: neighbors, Commitment: c}
	n.pending = make([]pendingRecord, len(neighbors))
	n.own = nodeid.NewCounter(neighbors)
	n.phase = PhaseDiscovering
	return nil
}

// Rejections of ReceiveRecordFrame, built once so that validating a frame
// allocates nothing whatever the verdict. The frame's sender comes back
// beside the error.
var (
	errRecordFrameType    = fmt.Errorf("%w: not a binding record", ErrMalformed)
	errRecordPhase        = fmt.Errorf("%w: binding record outside discovery", ErrPhase)
	errRecordNotTentative = fmt.Errorf("%w: binding record sender", ErrNotTentative)
	errRecordVersion      = fmt.Errorf("%w: version exceeds the update limit", ErrBadRecord)
	errRecordForged       = fmt.Errorf("%w: commitment does not verify", ErrBadRecord)
)

// ReceiveRecordFrame authenticates a tentative neighbor's MsgRecord frame
// with K and keeps what validation needs of it, returning the sender. It
// works on the frame in place: one pass over the wire list checks that it
// is canonical and counts the neighbors it shares with N(u), the commitment
// is recomputed over the list bytes as received, and nothing is decoded or
// allocated.
//
// It accepts exactly the frames that DecodeEnvelope decodes as a MsgRecord
// and whose record ReceiveBindingRecord accepts, and rejects the rest with
// the same error classes in the same order: ErrMalformed for a frame that
// does not decode (in any phase), ErrPhase outside discovery,
// ErrNotTentative for a sender outside N(u), and ErrBadRecord for a record
// that fails authentication. A record whose version exceeds the update
// limit is treated as forged — the version number "can also be used to
// indicate how much we can trust the binding record". The sender is
// returned with every error but ErrMalformed.
func (n *Node) ReceiveRecordFrame(frame []byte) (nodeid.ID, error) {
	if len(frame) < 1 || MsgType(frame[0]) != MsgRecord {
		return nodeid.None, errRecordFrameType
	}
	body := frame[1:]
	count, ok := recordListLen(body)
	if !ok {
		return nodeid.None, errFrameLength
	}
	list := body[12 : 12+4*count]
	// Outside discovery own is the zero Counter, so this only checks list.
	common, ok := n.own.CountList(list)
	if !ok {
		return nodeid.None, errFrameList
	}
	from, _ := nodeid.FromBytes(body[0:4])
	if n.phase != PhaseDiscovering {
		return from, errRecordPhase
	}
	slot, ok := slices.BinarySearch(n.record.Neighbors, from)
	if !ok {
		return from, errRecordNotTentative
	}
	version := binary.BigEndian.Uint32(body[4:8])
	if int(version) > n.cfg.MaxUpdates {
		return from, errRecordVersion
	}
	want, err := n.master.BindingCommitmentEncoded(from, version, list)
	if err != nil {
		return from, fmt.Errorf("core: recompute commitment: %w", err)
	}
	n.hashOps++
	if !want.Equal(crypto.Digest(body[12+4*count:])) {
		return from, errRecordForged
	}
	n.pending[slot] = pendingRecord{
		version: version,
		size:    uint32(recordStorageBytes(count)),
		common:  uint32(common),
	}
	return from, nil
}

// ReceiveBindingRecord is ReceiveRecordFrame for a record in hand: it frames
// r as a MsgRecord and validates the frame, so there is one validation
// rule. A record whose neighbor list is not a canonical Set is rejected
// with ErrMalformed.
func (n *Node) ReceiveBindingRecord(r BindingRecord) error {
	var buf [512]byte // room for a record of up to 116 neighbors
	frame, _ := Envelope{Type: MsgRecord, Record: r}.AppendTo(buf[:0])
	_, err := n.ReceiveRecordFrame(frame)
	return err
}

// DiscoveryResult carries everything a freshly deployed node must transmit
// after validation: relation commitments to its functional neighbors and
// relation evidences to every authenticated tentative neighbor.
type DiscoveryResult struct {
	Commitments []RelationCommitment
	Evidences   []RelationEvidence
}

// FinishDiscovery validates every collected record against the
// common-neighbor threshold, issues commitments and evidences, and erases
// the master key. After this call the node is operational and K is gone
// forever.
func (n *Node) FinishDiscovery() (*DiscoveryResult, error) {
	if n.phase != PhaseDiscovering {
		return nil, fmt.Errorf("%w: FinishDiscovery in phase %d", ErrPhase, n.phase)
	}
	// Everything is sized once, for a record from every tentative neighbor.
	res := &DiscoveryResult{
		Commitments: make([]RelationCommitment, 0, len(n.pending)),
		Evidences:   make([]RelationEvidence, 0, len(n.pending)),
	}
	n.functional = slices.Grow(n.functional, len(n.pending))
	// Slots follow N(u), so records are validated in ascending sender order.
	for i, r := range n.pending {
		if r.size == 0 {
			continue
		}
		v := n.record.Neighbors[i]
		// Evidence E(u,v) goes to every authenticated tentative neighbor,
		// bound to the version of the record it presented.
		ev, err := n.master.RelationEvidence(n.id, v, r.version)
		if err != nil {
			return nil, fmt.Errorf("core: evidence for %v: %w", v, err)
		}
		n.hashOps++
		res.Evidences = append(res.Evidences, RelationEvidence{
			From: n.id, To: v, Version: r.version, Digest: ev,
		})
		// Validation rule: |N(u) ∩ N(v)| ≥ t+1.
		if int(r.common) < n.cfg.Threshold+1 {
			continue
		}
		n.addFunctional(v)
		kv, err := n.master.VerificationKey(v)
		if err != nil {
			return nil, fmt.Errorf("core: K_v for %v: %w", v, err)
		}
		n.hashOps += 2 // K_v plus the commitment below
		res.Commitments = append(res.Commitments, RelationCommitment{
			From: n.id, To: v, Digest: kv.RelationCommitment(n.id),
		})
	}
	n.master.Erase()
	n.pending = nil
	n.own = nodeid.Counter{}
	n.phase = PhaseOperational
	return res, nil
}

// ReceiveRelationCommitment verifies C(w,u) against this node's own
// verification key K_u and, on success, adds w to the functional neighbor
// list. Only newly deployed nodes can produce a valid commitment, since
// K_u is derivable only from K.
func (n *Node) ReceiveRelationCommitment(c RelationCommitment) error {
	if n.phase == PhaseInitialized {
		return fmt.Errorf("%w: commitment before deployment", ErrPhase)
	}
	if c.To != n.id {
		return fmt.Errorf("%w: addressed to %v", ErrBadCommitment, c.To)
	}
	n.hashOps++
	if !n.vkey.VerifyRelationCommitment(c.From, c.Digest) {
		return fmt.Errorf("%w: from %v", ErrBadCommitment, c.From)
	}
	n.addFunctional(c.From)
	return nil
}

// ReceiveRelationEvidence buffers E(w,u) for a future binding-record
// update. The node cannot authenticate it (K is erased); it checks only
// that the evidence targets this node at its current record version. A
// forged evidence is caught later by the serving fresh node.
func (n *Node) ReceiveRelationEvidence(ev RelationEvidence) error {
	if n.phase != PhaseOperational {
		return fmt.Errorf("%w: evidence in phase %d", ErrPhase, n.phase)
	}
	if ev.To != n.id {
		return fmt.Errorf("%w: evidence addressed to %v", ErrBadEvidence, ev.To)
	}
	if ev.Version != n.record.Version {
		return fmt.Errorf("%w: evidence version %d, record version %d", ErrBadEvidence, ev.Version, n.record.Version)
	}
	if n.evidence == nil {
		n.evidence = make([]RelationEvidence, 0, len(n.record.Neighbors))
	}
	i, found := slices.BinarySearchFunc(n.evidence, ev.From, func(e RelationEvidence, from nodeid.ID) int {
		return cmp.Compare(e.From, from)
	})
	if found {
		n.evidence[i] = ev // a repeated issuer's latest evidence wins
	} else {
		n.evidence = slices.Insert(n.evidence, i, ev)
	}
	return nil
}

// BuildUpdateRequest assembles the node's current record and buffered
// evidences for a newly deployed node to authenticate and serve
// (Section 4.4, extension). It fails if the update budget is exhausted or
// there is no new evidence to justify an update.
func (n *Node) BuildUpdateRequest() (UpdateRequest, error) {
	if n.phase != PhaseOperational {
		return UpdateRequest{}, fmt.Errorf("%w: update request in phase %d", ErrPhase, n.phase)
	}
	if int(n.record.Version) >= n.cfg.MaxUpdates {
		return UpdateRequest{}, fmt.Errorf("%w: version %d, limit %d", ErrUpdateLimit, n.record.Version, n.cfg.MaxUpdates)
	}
	if len(n.evidence) == 0 {
		return UpdateRequest{}, errors.New("core: no relation evidence to justify an update")
	}
	return UpdateRequest{Record: n.record, Evidences: slices.Clone(n.evidence)}, nil
}

// ServeUpdateRequest runs on a newly deployed node (still holding K): it
// authenticates the requester's record and every evidence, then issues the
// updated record with the evidenced neighbors added and the version
// incremented. The serving node enforces the update limit. The updated
// list is a fresh merge; the request's list is left untouched.
func (n *Node) ServeUpdateRequest(req UpdateRequest) (BindingRecord, error) {
	if n.phase != PhaseDiscovering {
		return BindingRecord{}, fmt.Errorf("%w: serving update in phase %d", ErrPhase, n.phase)
	}
	r := req.Record
	if int(r.Version) >= n.cfg.MaxUpdates {
		return BindingRecord{}, fmt.Errorf("%w: version %d, limit %d", ErrUpdateLimit, r.Version, n.cfg.MaxUpdates)
	}
	want, err := n.master.BindingCommitment(r.Node, r.Version, r.Neighbors)
	if err != nil {
		return BindingRecord{}, fmt.Errorf("core: recompute commitment: %w", err)
	}
	n.hashOps++
	if !want.Equal(r.Commitment) {
		return BindingRecord{}, fmt.Errorf("%w: update request from %v", ErrBadRecord, r.Node)
	}
	added := make([]nodeid.ID, 0, len(req.Evidences))
	for _, ev := range req.Evidences {
		if ev.To != r.Node || ev.Version != r.Version {
			return BindingRecord{}, fmt.Errorf("%w: evidence %v->%v v%d inconsistent with record v%d",
				ErrBadEvidence, ev.From, ev.To, ev.Version, r.Version)
		}
		wantEv, err := n.master.RelationEvidence(ev.From, ev.To, ev.Version)
		if err != nil {
			return BindingRecord{}, fmt.Errorf("core: recompute evidence: %w", err)
		}
		n.hashOps++
		if !wantEv.Equal(ev.Digest) {
			return BindingRecord{}, fmt.Errorf("%w: from %v", ErrBadEvidence, ev.From)
		}
		added = append(added, ev.From)
	}
	updated := r.Neighbors.Union(nodeid.NewSet(added...))
	c, err := n.master.BindingCommitment(r.Node, r.Version+1, updated)
	if err != nil {
		return BindingRecord{}, fmt.Errorf("core: commit updated record: %w", err)
	}
	n.hashOps++
	return BindingRecord{Node: r.Node, Version: r.Version + 1, Neighbors: updated, Commitment: c}, nil
}

// ApplyUpdate installs the updated record returned by a fresh node. The
// requester cannot recompute the commitment (K is erased); the secure
// channel to the serving node is its authenticity guarantee, so ApplyUpdate
// only sanity-checks shape: same node, version+1, neighbor superset.
func (n *Node) ApplyUpdate(updated BindingRecord) error {
	if n.phase != PhaseOperational {
		return fmt.Errorf("%w: applying update in phase %d", ErrPhase, n.phase)
	}
	if updated.Node != n.id {
		return fmt.Errorf("core: update names %v, not %v", updated.Node, n.id)
	}
	if updated.Version != n.record.Version+1 {
		return fmt.Errorf("core: update version %d, want %d", updated.Version, n.record.Version+1)
	}
	for _, v := range n.record.Neighbors {
		if !updated.Neighbors.Contains(v) {
			return fmt.Errorf("core: update dropped neighbor %v", v)
		}
	}
	n.record = updated
	// Evidence bound to the old version is now consumed.
	n.evidence = n.evidence[:0]
	return nil
}

// EvidenceCount returns how many buffered evidences the node holds — part
// of the extension's memory overhead.
func (n *Node) EvidenceCount() int { return len(n.evidence) }

// StorageBytes estimates the node's persistent protocol state: its binding
// record, verification key, functional list and buffered evidences. During
// discovery the (transient) master key and pending records are also
// counted, matching the paper's two-phase storage analysis.
func (n *Node) StorageBytes() int {
	s := n.record.StorageBytes() + crypto.DigestSize + 4*len(n.functional)
	s += len(n.evidence) * (4 + 4 + 4 + crypto.DigestSize)
	if n.phase == PhaseDiscovering {
		s += crypto.DigestSize // the master key K
		for _, r := range n.pending {
			s += int(r.size)
		}
	}
	return s
}

// Clone deep-copies the node's state. This is exactly what an attacker
// obtains by compromising the node after discovery — and what every
// replica device runs. Note the master key clone of an operational node is
// erased: replication yields no K.
func (n *Node) Clone() *Node {
	c := &Node{
		id:         n.id,
		cfg:        n.cfg,
		phase:      n.phase,
		master:     n.master.Clone(),
		vkey:       n.vkey,
		record:     n.record,
		functional: slices.Clone(n.functional),
		pending:    slices.Clone(n.pending),
		own:        n.own,
		evidence:   slices.Clone(n.evidence),
		hashOps:    n.hashOps,
	}
	return c
}

// CompromiseMaster hands the attacker the node's master key copy as-is. If
// the node already erased K this is an erased key — the paper's deployment
// assumption. If the attacker beats the erasure window (the assumption is
// violated), it gets a live K and the scheme collapses; the adversary
// package's grace-violation experiment uses exactly this.
func (n *Node) CompromiseMaster() *crypto.MasterKey { return n.master.Clone() }
