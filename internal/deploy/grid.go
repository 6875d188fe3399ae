// Uniform-grid spatial index behind the layout's range queries.
//
// Every experiment pays for radius scans constantly: the radio medium
// resolves the receivers of each transmission, TruthGraph rebuilds the
// ground-truth neighbor graph per trial, and the replica-detection
// baselines index device adjacency. Scanning all n devices per query makes
// each of those O(n²); the grid makes them O(n + k) for k reported
// devices, which is what lets sweeps reach the node counts the
// secure-neighbor-discovery literature evaluates at.
//
// The index buckets alive devices into square cells keyed by
// floor(pos/cell). With cell size equal to the radio range (the common
// query radius), a range query inspects the 3×3 cell neighborhood —
// constant cells, ~9·density candidates — but correctness never depends on
// the cell size: a query of radius r inspects every cell overlapping the
// query disk, however many that is.
//
// Iteration-order contract: the exported queries report devices in
// deployment order (ascending Handle), exactly the order the pre-index
// brute-force scans used — a query collects the matches of the few
// overlapping cells into a pooled scratch buffer and sorts it, so
// steady-state queries allocate nothing. Internal consumers whose output
// is order-independent (the truth-graph builder, whose Finalize
// canonicalizes) use the unordered sweep and skip the sort.
//
// Cells hold *Device directly: a range query touches every candidate in
// the neighborhood, and resolving each through a handle map was the
// single hottest line of million-node truth-graph builds.

package deploy

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"snd/internal/geometry"
	"snd/internal/nodeid"
)

// gridCell addresses one square bucket of the index.
type gridCell struct{ x, y int32 }

// gridIndex is the uniform grid. It holds only alive devices: insert adds,
// Kill removes. Dead devices never match a query, so keeping them out of
// the cells makes long-lived layouts with churn cheap.
type gridIndex struct {
	cell  float64
	cells map[gridCell][]*Device
}

func newGridIndex(cell float64) *gridIndex {
	return &gridIndex{cell: cell, cells: make(map[gridCell][]*Device)}
}

func (g *gridIndex) cellOf(p geometry.Point) gridCell {
	return gridCell{x: int32(math.Floor(p.X / g.cell)), y: int32(math.Floor(p.Y / g.cell))}
}

func (g *gridIndex) add(d *Device) {
	k := g.cellOf(d.Pos)
	g.cells[k] = append(g.cells[k], d)
}

func (g *gridIndex) remove(d *Device) {
	k := g.cellOf(d.Pos)
	ds := g.cells[k]
	for i, o := range ds {
		if o == d {
			g.cells[k] = append(ds[:i], ds[i+1:]...)
			break
		}
	}
	if len(g.cells[k]) == 0 {
		delete(g.cells, k)
	}
}

// EnsureGrid builds the spatial index with the given cell size if the
// layout does not have one yet; with an index already present it is a
// no-op, whatever the cell size — queries are correct under any cell size,
// so the first builder (typically radio.NewMedium, with the radio range)
// wins and later callers share it. Non-positive or non-finite cell sizes
// are ignored. Deploy and Kill maintain the index incrementally from then
// on.
func (l *Layout) EnsureGrid(cell float64) {
	if l.idx != nil || !(cell > 0) || math.IsInf(cell, 0) {
		return
	}
	idx := newGridIndex(cell)
	for _, d := range l.devices {
		if d.Alive {
			idx.add(d)
		}
	}
	l.idx = idx
}

// HasGrid reports whether the layout carries a spatial index.
func (l *Layout) HasGrid() bool { return l.idx != nil }

// scratchPool recycles the per-query candidate buffers so grid-backed
// queries allocate nothing in steady state, and stay safe under the
// concurrent readers the radio medium serializes behind its own lock as
// well as reentrant queries issued from inside a callback.
var scratchPool = sync.Pool{New: func() any { s := make([]*Device, 0, 128); return &s }}

// forEachAlive invokes fn for every alive device within distance r of
// center, excluding skip, in deployment order. Without an index it falls
// back to the brute-force scan over l.devices (already deployment-ordered).
func (l *Layout) forEachAlive(center geometry.Point, r float64, skip Handle, fn func(*Device)) {
	if l.idx == nil {
		l.forEachAliveUnordered(center, r, skip, fn)
		return
	}
	if r < 0 {
		return
	}
	sp := scratchPool.Get().(*[]*Device)
	buf := (*sp)[:0]
	l.forEachAliveUnordered(center, r, skip, func(d *Device) { buf = append(buf, d) })
	slices.SortFunc(buf, func(a, b *Device) int { return cmp.Compare(a.Handle, b.Handle) })
	for _, d := range buf {
		fn(d)
	}
	*sp = buf[:0]
	scratchPool.Put(sp)
}

// forEachAliveUnordered is forEachAlive without the deployment-order
// contract: matches are reported as the cell scan encounters them. It
// skips the candidate buffer and the sort, which makes it the right sweep
// for consumers whose output cannot depend on visit order — the
// truth-graph builder's Finalize canonicalizes, so it uses this directly.
func (l *Layout) forEachAliveUnordered(center geometry.Point, r float64, skip Handle, fn func(*Device)) {
	if r < 0 {
		return
	}
	if l.idx == nil {
		for _, d := range l.devices {
			if d.Handle != skip && d.Alive && center.InRange(d.Pos, r) {
				fn(d)
			}
		}
		return
	}
	g := l.idx
	minX := int32(math.Floor((center.X - r) / g.cell))
	maxX := int32(math.Floor((center.X + r) / g.cell))
	minY := int32(math.Floor((center.Y - r) / g.cell))
	maxY := int32(math.Floor((center.Y + r) / g.cell))
	for cx := minX; cx <= maxX; cx++ {
		for cy := minY; cy <= maxY; cy++ {
			for _, d := range g.cells[gridCell{x: cx, y: cy}] {
				// Cells hold only alive devices; the flag re-check guards
				// callers that kill from inside a callback of the ordered
				// wrapper (which buffered the candidate list beforehand).
				if d.Handle != skip && d.Alive && center.InRange(d.Pos, r) {
					fn(d)
				}
			}
		}
	}
}

// ForEachInRange invokes fn for every alive device within radio range r of
// device h — excluding h itself, including co-located replicas of the same
// node — in deployment order (ascending Handle). It is the iterator form
// of InRange: no candidate slice is materialized, and with a grid index
// present the query costs O(k) for k matches instead of O(n).
//
// fn must not mutate the layout; mutations made from inside the callback
// leave the iteration undefined.
func (l *Layout) ForEachInRange(h Handle, r float64, fn func(*Device)) {
	self := l.Device(h)
	if self == nil {
		return
	}
	l.forEachAlive(self.Pos, r, h, fn)
}

// ForEachDeviceOf invokes fn for every device claiming logical node id,
// originals first, in deployment order. It materializes no slice, so hot
// paths (e.g. the georouting reach predicate) that only probe allocate
// nothing. fn must not mutate the layout.
func (l *Layout) ForEachDeviceOf(id nodeid.ID, fn func(*Device)) {
	if id >= 1 && int(id) <= len(l.primary) {
		fn(l.devices[l.primary[id-1]-1])
	}
	for _, h := range l.replicas[id] {
		fn(l.devices[h-1])
	}
}
