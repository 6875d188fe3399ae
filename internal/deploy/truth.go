// Ground-truth topology construction.
//
// TruthGraph is rebuilt per trial by every accuracy metric, so it is the
// hottest graph-construction path in the repo. Two things keep it fast at
// n=10⁵–10⁶:
//
//  1. The output is a CSR topology.Graph built through a
//     topology.Builder: edges append to a flat pair buffer instead of
//     map/set insertion, and finalization lays them out as sorted slices.
//  2. Edge discovery is cell-centric: each grid cell is swept once, pairing
//     its devices against each other and against the forward half of the
//     cell neighborhood, so every in-range pair is tested exactly once
//     (no per-device range queries, no candidate sorting, ~5 cell-map
//     lookups per cell instead of 9 per device). The sweep runs in
//     parallel, one goroutine per stripe of grid cells: workers only read
//     the layout and write to their own pair buffer; stripes merge in
//     stripe order, and Builder.Finalize canonicalizes (sorts and dedupes)
//     the rows, so the result is bit-identical to the serial build no
//     matter how sweeps visit pairs or stripe work interleaves — the
//     differential tests in truth_test.go pin this.
//
// Builders and per-stripe pair buffers are pooled, so steady-state trial
// loops reuse their scratch allocations.
package deploy

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"snd/internal/nodeid"
	"snd/internal/topology"
)

// truthParallelMin is the device count below which the parallel build is
// not worth the goroutine and merge overhead.
const truthParallelMin = 2048

// truthBuilderPool recycles graph builders (and their edge buffers)
// across TruthGraph calls.
var truthBuilderPool = sync.Pool{New: func() any { return topology.NewBuilder() }}

// pairBufPool recycles the per-stripe edge buffers of the parallel build.
var pairBufPool = sync.Pool{New: func() any { s := make([]nodeid.Pair, 0, 4096); return &s }}

// TruthGraph returns the ground-truth tentative topology: mutual relations
// between the logical IDs of alive, non-replica devices within range r of
// each other. This is the ideal output of a perfect direct verification
// mechanism over benign hardware, and the denominator of the accuracy
// metric.
//
// The result is immutable, safe for concurrent readers, with sorted-slice
// adjacency. Edge discovery sweeps the spatial
// index cell by cell (building the index at cell size r first if the
// layout has none) and runs the sweeps in parallel across grid-cell
// stripes for large layouts; the result is identical to the serial build.
func (l *Layout) TruthGraph(r float64) *topology.Graph {
	return l.truthGraph(r, runtime.GOMAXPROCS(0))
}

// truthGraph is TruthGraph with an explicit worker count, the seam the
// parallel-vs-serial differential tests force both paths through.
func (l *Layout) truthGraph(r float64, workers int) *topology.Graph {
	l.EnsureGrid(r)
	b := truthBuilderPool.Get().(*topology.Builder)
	var bufs []*[]nodeid.Pair
	// The pooled state goes back only after Finalize. Finalize allocates
	// the whole graph, and a pooled buffer survives only one collection,
	// so buffers pooled before it would often be gone by the next build.
	defer func() {
		b.Reset()
		truthBuilderPool.Put(b)
		for _, bp := range bufs {
			if bp != nil {
				*bp = (*bp)[:0]
				pairBufPool.Put(bp)
			}
		}
	}()
	alive := 0
	for _, d := range l.devices {
		if d.Alive && !d.Replica {
			b.AddNode(d.Node)
			alive++
		}
	}
	switch {
	case l.idx == nil:
		l.truthEdgesScan(r, b)
	case workers <= 1 || alive < truthParallelMin:
		l.truthEdgesSerial(r, b)
	default:
		bufs = l.truthEdgesParallel(r, workers, b)
	}
	return b.Finalize()
}

// truthEdgesScan is the index-free fallback (grid construction declined
// the cell size): a brute-force order walk recording each pair once from
// its lower handle.
func (l *Layout) truthEdgesScan(r float64, b *topology.Builder) {
	for _, d := range l.devices {
		if !d.Alive || d.Replica {
			continue
		}
		h := d.Handle
		l.forEachAliveUnordered(d.Pos, r, h, func(o *Device) {
			if o.Handle > h && !o.Replica {
				b.AddMutual(d.Node, o.Node)
			}
		})
	}
}

// truthSweepCell tests every unordered benign pair the cell ck is
// responsible for and calls emit for the in-range ones: pairs inside the
// cell (from the lower list index) and pairs against cells in the forward
// half of the (2m+1)² neighborhood, m = ceil(r/cell). Two devices within
// distance r sit at most m cells apart on each axis, and each cross-cell
// pair has exactly one lexicographically lower cell, so the union of all
// cell sweeps covers every pair exactly once.
func (l *Layout) truthSweepCell(ck gridCell, r float64, m int32, emit func(a, b *Device)) {
	g := l.idx
	list := g.cells[ck]
	for i, d := range list {
		if d.Replica { // cells hold only alive devices
			continue
		}
		for _, o := range list[i+1:] {
			if !o.Replica && d.Pos.InRange(o.Pos, r) {
				emit(d, o)
			}
		}
	}
	for dx := int32(0); dx <= m; dx++ {
		dyMin := -m
		if dx == 0 {
			dyMin = 1 // forward half: (0, dy>0) and (dx>0, any dy)
		}
		for dy := dyMin; dy <= m; dy++ {
			other := g.cells[gridCell{x: ck.x + dx, y: ck.y + dy}]
			if len(other) == 0 {
				continue
			}
			for _, d := range list {
				if d.Replica {
					continue
				}
				for _, o := range other {
					if !o.Replica && d.Pos.InRange(o.Pos, r) {
						emit(d, o)
					}
				}
			}
		}
	}
}

// truthReach returns the cell neighborhood radius for query radius r.
func (l *Layout) truthReach(r float64) int32 {
	return int32(math.Ceil(r / l.idx.cell))
}

// sortedCellKeys returns the grid's cell keys in (x, y) order.
// Deterministic sweep order is not needed for correctness (Finalize
// canonicalizes) but keeps per-run work and pool behavior reproducible.
func (l *Layout) sortedCellKeys() []gridCell {
	cells := make([]gridCell, 0, len(l.idx.cells))
	for ck := range l.idx.cells {
		cells = append(cells, ck)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].x != cells[j].x {
			return cells[i].x < cells[j].x
		}
		return cells[i].y < cells[j].y
	})
	return cells
}

// truthEdgesSerial sweeps the cells one by one on the calling goroutine.
func (l *Layout) truthEdgesSerial(r float64, b *topology.Builder) {
	m := l.truthReach(r)
	for _, ck := range l.sortedCellKeys() {
		l.truthSweepCell(ck, r, m, func(a, o *Device) {
			b.AddMutual(a.Node, o.Node)
		})
	}
}

// truthEdgesParallel partitions the grid's cells into one stripe per
// worker and sweeps the stripes concurrently. Workers only read layout
// state (cell lists, device fields) and append to their own buffer, so
// the build is race-free by construction, and the per-cell sweeps cover
// each unordered pair exactly once whichever stripe its owning cell
// landed in. It returns the stripe buffers, nil for empty stripes, which
// the caller pools once it is done with b.
func (l *Layout) truthEdgesParallel(r float64, workers int, b *topology.Builder) []*[]nodeid.Pair {
	cells := l.sortedCellKeys()
	if workers > len(cells) {
		workers = len(cells)
	}
	m := l.truthReach(r)
	bufs := make([]*[]nodeid.Pair, workers)
	var wg sync.WaitGroup
	chunk := (len(cells) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(cells))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			bp := pairBufPool.Get().(*[]nodeid.Pair)
			pairs := (*bp)[:0]
			for _, ck := range cells[lo:hi] {
				l.truthSweepCell(ck, r, m, func(a, o *Device) {
					pairs = append(pairs,
						nodeid.Pair{From: a.Node, To: o.Node},
						nodeid.Pair{From: o.Node, To: a.Node})
				})
			}
			*bp = pairs
			bufs[w] = bp
		}(w, lo, hi)
	}
	wg.Wait()
	for _, bp := range bufs {
		if bp != nil {
			b.AddPairs(*bp)
		}
	}
	return bufs
}
