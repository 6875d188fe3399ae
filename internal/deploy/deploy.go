// Package deploy models the physical side of a sensor network: devices
// placed in a field across deployment rounds, including attacker-planted
// replica devices that carry a compromised node's logical identity
// (Parno et al.'s node replication attack, which the paper defends
// against), battery death, and the ground-truth neighbor graph that
// accuracy is measured against.
//
// The paper's model distinguishes a node's logical identity from the
// physical devices claiming it: a replicated node is one logical ID on many
// devices. Layout therefore tracks Devices, each with a unique Handle, a
// logical node ID, a current position and — crucially for the d-safety
// analysis — the original deployment point, which never changes even if the
// attacker moves the device.
package deploy

import (
	"fmt"
	"math/rand"

	"snd/internal/geometry"
	"snd/internal/nodeid"
)

// Handle uniquely identifies a physical device within a layout. Distinct
// replicas of the same logical node have distinct handles. Handles are
// assigned from 1, so the zero Handle names no device.
type Handle int

// Device is one physical radio in the field.
type Device struct {
	Handle Handle
	// Node is the logical identity the device claims. Replicas share the
	// compromised node's ID.
	Node nodeid.ID
	// Pos is the device's current position.
	Pos geometry.Point
	// Origin is the original deployment point of the logical node; for a
	// replica it is where this replica was planted. Theorem 3's proof
	// reasons about original deployment points.
	Origin geometry.Point
	// Round is the deployment round the device arrived in (0-based).
	Round int
	// Alive is false once the device's battery is depleted or it is
	// physically removed.
	Alive bool
	// Replica marks attacker-planted clones.
	Replica bool
}

// Layout is the set of deployed devices. It is not safe for concurrent
// mutation; the simulation engine owns it.
//
// Handles and node IDs are both assigned densely from 1, so the layout
// stores its state in handle-indexed slices instead of maps: device lookup
// is an array index, and deploying a device is a slice append — no hashing
// on the million-node deployment path. Replica handles (many devices per
// logical node) are the rare case and live in a side map.
type Layout struct {
	field geometry.Rect
	// devices holds every device ever deployed, indexed by Handle-1 —
	// deployment order and handle order coincide by construction.
	devices []*Device
	// primary maps nodeid.ID-1 to the node's original device handle.
	primary []Handle
	// replicas maps a node ID to its replica device handles, ascending;
	// nil until the first replica is planted.
	replicas map[nodeid.ID][]Handle
	nextH    Handle
	nextID   nodeid.ID
	// idx is the uniform-grid spatial index behind the range queries; nil
	// until EnsureGrid builds it (see grid.go), after which Deploy and Kill
	// maintain it incrementally.
	idx *gridIndex
}

// NewLayout returns an empty layout over the given field.
func NewLayout(field geometry.Rect) *Layout {
	return &Layout{field: field}
}

// Deploy places a brand-new node (fresh logical ID) at pos in the given
// round and returns its device.
func (l *Layout) Deploy(pos geometry.Point, round int) *Device {
	l.nextH++
	l.nextID++
	d := &Device{
		Handle: l.nextH,
		Node:   l.nextID,
		Pos:    pos,
		Origin: pos,
		Round:  round,
		Alive:  true,
	}
	l.insert(d)
	return d
}

// DeployReplica plants a replica of the logical node id at pos. It fails if
// the node was never deployed.
func (l *Layout) DeployReplica(id nodeid.ID, pos geometry.Point, round int) (*Device, error) {
	if id < 1 || int(id) > len(l.primary) {
		return nil, fmt.Errorf("deploy: replica of unknown node %v", id)
	}
	l.nextH++
	d := &Device{
		Handle:  l.nextH,
		Node:    id,
		Pos:     pos,
		Origin:  pos,
		Round:   round,
		Alive:   true,
		Replica: true,
	}
	l.insert(d)
	return d, nil
}

func (l *Layout) insert(d *Device) {
	l.devices = append(l.devices, d)
	if d.Replica {
		if l.replicas == nil {
			l.replicas = make(map[nodeid.ID][]Handle)
		}
		l.replicas[d.Node] = append(l.replicas[d.Node], d.Handle)
	} else {
		l.primary = append(l.primary, d.Handle)
	}
	if l.idx != nil {
		l.idx.add(d)
	}
}

// DeploySampled deploys n fresh nodes at positions drawn from the sampler.
func (l *Layout) DeploySampled(s Sampler, n int, rng *rand.Rand, round int) []*Device {
	pts := s.Sample(l.field, n, rng)
	out := make([]*Device, 0, len(pts))
	for _, p := range pts {
		out = append(out, l.Deploy(p, round))
	}
	return out
}

// Device returns the device with the given handle, or nil.
func (l *Layout) Device(h Handle) *Device {
	if h < 1 || int(h) > len(l.devices) {
		return nil
	}
	return l.devices[h-1]
}

// Devices returns all devices in deployment order. The slice is fresh but
// the pointers alias layout state; callers mutate devices only through
// Layout methods. Hot paths that only iterate use ForEachDevice instead.
func (l *Layout) Devices() []*Device {
	return append([]*Device(nil), l.devices...)
}

// ForEachDevice invokes fn for every device in deployment order without
// materializing a slice. fn must not deploy or kill from inside the
// callback.
func (l *Layout) ForEachDevice(fn func(*Device)) {
	for _, d := range l.devices {
		fn(d)
	}
}

// Primary returns the original (non-replica) device of node id, or nil.
func (l *Layout) Primary(id nodeid.ID) *Device {
	if id < 1 || int(id) > len(l.primary) {
		return nil
	}
	return l.devices[l.primary[id-1]-1]
}

// Kill marks the device dead (battery depletion or removal) and drops it
// from the spatial index: dead devices never match a range query.
func (l *Layout) Kill(h Handle) {
	d := l.Device(h)
	if d == nil || !d.Alive {
		return
	}
	d.Alive = false
	if l.idx != nil {
		l.idx.remove(d)
	}
}

// KillFraction kills the given fraction of alive, non-replica devices
// chosen uniformly, returning the killed devices. It models the paper's
// "some sensor nodes run out of battery after the network is in operation
// for a long period of time".
func (l *Layout) KillFraction(frac float64, rng *rand.Rand) []*Device {
	var candidates []*Device
	for _, d := range l.devices {
		if d.Alive && !d.Replica {
			candidates = append(candidates, d)
		}
	}
	n := int(frac * float64(len(candidates)))
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	killed := candidates[:n]
	for _, d := range killed {
		l.Kill(d.Handle)
	}
	return killed
}

// Count returns the total number of devices ever deployed.
func (l *Layout) Count() int { return len(l.devices) }

// AliveCount returns the number of alive devices.
func (l *Layout) AliveCount() int {
	n := 0
	for _, d := range l.devices {
		if d.Alive {
			n++
		}
	}
	return n
}

// ClosestToCenter returns the alive non-replica device nearest the field
// center, which Figure 3's simulation samples to avoid border effects.
func (l *Layout) ClosestToCenter() *Device {
	center := l.field.Center()
	var best *Device
	bestD := 0.0
	for _, d := range l.devices {
		if !d.Alive || d.Replica {
			continue
		}
		dist := d.Pos.Dist2(center)
		if best == nil || dist < bestD {
			best, bestD = d, dist
		}
	}
	return best
}
