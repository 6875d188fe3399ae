// Package georoute implements GPSR-style geographic routing (Karp & Kung,
// MobiCom 2000 — the paper's reference [12] and its motivating example for
// why nodes need correct neighbor lists): greedy forwarding toward the
// destination's position, with compass-style recovery routing over a
// planarized (Gabriel) subgraph to escape local minima — a simplification
// of GPSR's perimeter mode that preserves its structure: a planar
// subgraph, a recovery mode entered at local minima and left only once
// the packet is closer than the entry point.
//
// The router consumes a neighbor table per node — either the ground truth,
// the tentative topology, or the protocol's functional topology — which is
// exactly the knob the paper's introduction turns: "a sensor node will
// fail to route packets if the next hop on the routing path is not its
// neighbor." Routing over an attacker-polluted tentative topology forwards
// packets to phantom neighbors and fails; routing over the validated
// functional topology does not.
package georoute

import (
	"fmt"
	"math"
	"slices"

	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/topology"
)

// Router routes over a fixed set of node positions and a neighbor graph.
type Router struct {
	pos map[nodeid.ID]geometry.Point
	// links is the neighbor table used for forwarding decisions.
	links *topology.Graph
	// reach reports whether a frame sent from a to b is actually
	// delivered — the physical truth, as opposed to what the neighbor
	// table claims. Forwarding to a claimed neighbor that is not really
	// reachable loses the packet.
	reach func(a, b nodeid.ID) bool
	// planar caches the planarized adjacency used by perimeter mode.
	planar map[nodeid.ID][]nodeid.ID
}

// New builds a router. The reach predicate defaults to "the link exists in
// the graph" when nil (i.e. the neighbor table is trusted to be physical).
func New(pos map[nodeid.ID]geometry.Point, links *topology.Graph, reach func(a, b nodeid.ID) bool) *Router {
	r := &Router{
		pos:   pos,
		links: links,
		reach: reach,
	}
	if r.reach == nil {
		r.reach = func(a, b nodeid.ID) bool { return links.HasRelation(a, b) }
	}
	r.planar = r.gabrielGraph()
	return r
}

// gabrielGraph planarizes the link graph: the edge (u, v) survives iff no
// other claimed neighbor w of u lies inside the disk with diameter uv.
// GPSR uses this (or the RNG) so that face routing is well defined.
func (r *Router) gabrielGraph() map[nodeid.ID][]nodeid.ID {
	planar := make(map[nodeid.ID][]nodeid.ID)
	for _, u := range r.links.Nodes() {
		pu, ok := r.pos[u]
		if !ok {
			continue
		}
		for _, v := range r.links.Out(u) {
			pv, ok := r.pos[v]
			if !ok {
				continue
			}
			mid := geometry.Point{X: (pu.X + pv.X) / 2, Y: (pu.Y + pv.Y) / 2}
			radius2 := pu.Dist2(pv) / 4
			keep := true
			for _, w := range r.links.Out(u) {
				if w == v {
					continue
				}
				if pw, ok := r.pos[w]; ok && mid.Dist2(pw) < radius2-1e-9 {
					keep = false
				}
			}
			if keep {
				planar[u] = append(planar[u], v)
			}
		}
	}
	for _, adj := range planar {
		slices.Sort(adj)
	}
	return planar
}

// Result describes one routing attempt.
type Result struct {
	// Delivered is true when the packet reached the destination.
	Delivered bool
	// Path holds the nodes traversed, source first.
	Path []nodeid.ID
	// Hops is len(Path)-1 for delivered packets.
	Hops int
	// PerimeterHops counts hops spent in perimeter (face) mode.
	PerimeterHops int
	// LostAtPhantom is true when the failure was caused by forwarding to
	// a neighbor-table entry that is not physically reachable — the exact
	// failure mode the paper's introduction warns about.
	LostAtPhantom bool
}

// Route forwards a packet from src toward dst: greedy mode while progress
// is possible, compass-style recovery over the planarized graph otherwise
// (a simplification of GPSR's perimeter mode). Recovery persists until the
// packet is strictly closer to the destination than where greedy first
// failed — without that rule, greedy and recovery oscillate around voids.
func (r *Router) Route(src, dst nodeid.ID) (Result, error) {
	if _, ok := r.pos[src]; !ok {
		return Result{}, fmt.Errorf("georoute: unknown source %v", src)
	}
	dstPos, ok := r.pos[dst]
	if !ok {
		return Result{}, fmt.Errorf("georoute: unknown destination %v", dst)
	}
	res := Result{Path: []nodeid.ID{src}}
	cur := src
	visited := map[nodeid.ID]bool{src: true}
	maxHops := 4 * (r.links.NumNodes() + 1)
	recovering := false
	entryDist2 := math.Inf(1)

	for cur != dst && res.Hops < maxHops {
		curDist2 := r.pos[cur].Dist2(dstPos)
		if recovering && curDist2 < entryDist2 {
			recovering = false
		}
		var next nodeid.ID
		if !recovering {
			next = r.greedyNext(cur, dstPos)
			if next == nodeid.None {
				recovering = true
				entryDist2 = curDist2
			}
		}
		if recovering {
			next = r.recoveryNext(cur, dstPos, visited)
		}
		if next == nodeid.None {
			return res, nil // stuck: undeliverable over this topology
		}
		// The neighbor table says next is adjacent; physics decides.
		if !r.reach(cur, next) {
			res.LostAtPhantom = true
			return res, nil
		}
		cur = next
		visited[cur] = true
		res.Path = append(res.Path, cur)
		res.Hops++
		if recovering {
			res.PerimeterHops++
		}
	}
	res.Delivered = cur == dst
	return res, nil
}

// greedyNext returns the neighbor strictly closer to the destination, or
// None when greedy is stuck at a local minimum.
func (r *Router) greedyNext(cur nodeid.ID, dstPos geometry.Point) nodeid.ID {
	curPos := r.pos[cur]
	best := nodeid.None
	bestD := curPos.Dist2(dstPos)
	for _, v := range r.links.Out(cur) {
		pv, ok := r.pos[v]
		if !ok {
			continue
		}
		if d := pv.Dist2(dstPos); d < bestD {
			best, bestD = v, d
		}
	}
	return best
}

// recoveryNext picks the unvisited planar neighbor whose bearing deviates
// least from the destination bearing (compass routing over the Gabriel
// subgraph). The visited set keeps recovery loop-free on simple faces.
func (r *Router) recoveryNext(cur nodeid.ID, dstPos geometry.Point, visited map[nodeid.ID]bool) nodeid.ID {
	curPos := r.pos[cur]
	bearing := math.Atan2(dstPos.Y-curPos.Y, dstPos.X-curPos.X)
	var (
		chosen    = nodeid.None
		bestAngle = math.Inf(1)
	)
	for _, v := range r.planar[cur] {
		if visited[v] {
			continue
		}
		pv, ok := r.pos[v]
		if !ok {
			continue
		}
		a := math.Abs(math.Atan2(pv.Y-curPos.Y, pv.X-curPos.X) - bearing)
		if a > math.Pi {
			a = 2*math.Pi - a
		}
		if a < bestAngle {
			bestAngle, chosen = a, v
		}
	}
	return chosen
}
