// Package topology implements the paper's formal model of neighbor
// discovery (Section 3): the tentative network topology as a directed graph
// of asserted neighbor relations (Definition 2), neighbor validation
// functions F(u, v, B) (Definition 3), the functional topology they induce
// (Definition 5), partitions and isolated nodes, and the isomorphic
// relabeling machinery that powers the Theorem 1/2 attack constructions.
//
// Once discovery ends a topology is a fixed relation set, so there is one
// graph type and it is build-only: a Builder collects vertices and
// relations, and Finalize lays them out as an immutable Graph in CSR form.
// Deriving a topology — Subgraph, EgoNetwork, Relabel, or an attacker
// injecting relations — builds a new Graph the same way.
package topology

import (
	"runtime"
	"slices"
	"sync"

	"snd/internal/nodeid"
)

// Graph is a directed graph over node IDs. An edge (u, v) is a tentative
// neighbor relation: "u considers v its tentative neighbor" (Definition 1).
// Vertices are a sorted ID slice and adjacency is in CSR layout (one offset
// per vertex into a single sorted-neighbor array): no per-vertex
// allocations, cache-local neighbor rows, O(log deg) membership, and
// sorted-merge CommonOut — the representation that lets the truth graph and
// validation reach n=10⁵–10⁶.
//
// A Graph comes only from Builder.Finalize, is immutable, and is safe for
// concurrent readers. The reverse (in-edge) CSR is materialized lazily on
// first use, because the dominant consumers (accuracy, validation) never
// look at in-edges and symmetric graphs would pay double memory for
// nothing.
type Graph struct {
	ids   nodeid.Set  // vertices, ascending
	off   []int       // len(ids)+1 row offsets into adj
	adj   []nodeid.ID // out-neighbors, each row ascending
	edges int

	// dense maps id-denseMin -> row+1 (0 = absent) when the ID span is
	// small next to the input (see denseFactor); nil falls back to binary
	// search over ids.
	dense    []int32
	denseMin nodeid.ID

	inOnce sync.Once
	inOff  []int
	inAdj  []nodeid.ID
}

// denseFactor bounds the direct-lookup table by the input: Finalize builds
// it only when the ID span is at most denseFactor times the number of IDs
// it collected (explicit vertices plus both endpoints of every relation).
// Sequentially assigned deployments always qualify; a small Subgraph,
// EgoNetwork or Relabel of a graph with a wide ID range does not, so it
// costs O(vertices + relations) rather than O(ID span).
const denseFactor = 4

// idx returns u's row, or -1 if u is not a vertex.
func (g *Graph) idx(u nodeid.ID) int {
	if g.dense != nil {
		if u < g.denseMin || uint64(u-g.denseMin) >= uint64(len(g.dense)) {
			return -1
		}
		return int(g.dense[u-g.denseMin]) - 1
	}
	if i, ok := slices.BinarySearch(g.ids, u); ok {
		return i
	}
	return -1
}

// row returns u's out-neighbor row (ascending), shared storage.
func (g *Graph) row(u nodeid.ID) nodeid.Set {
	i := g.idx(u)
	if i < 0 {
		return nil
	}
	return g.adj[g.off[i]:g.off[i+1]]
}

// HasRelation reports whether the relation (from, to) exists.
func (g *Graph) HasRelation(from, to nodeid.ID) bool {
	return g.row(from).Contains(to)
}

// HasMutual reports whether both (a, b) and (b, a) exist.
func (g *Graph) HasMutual(a, b nodeid.ID) bool {
	return g.HasRelation(a, b) && g.HasRelation(b, a)
}

// Out returns u's tentative neighbor set N(u): its CSR row, shared with
// the graph and never copied. Like every Set it is read-only.
func (g *Graph) Out(u nodeid.ID) nodeid.Set { return g.row(u) }

// CommonOut returns |N(u) ∩ N(v)| by sorted merge, without allocating —
// the quantity at the heart of the paper's validation rule.
func (g *Graph) CommonOut(u, v nodeid.ID) int {
	return g.row(u).IntersectLen(g.row(v))
}

// Nodes returns the vertex IDs in ascending order (a fresh copy).
func (g *Graph) Nodes() []nodeid.ID {
	return append([]nodeid.ID(nil), g.ids...)
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.ids) }

// NumRelations returns the number of directed relations.
func (g *Graph) NumRelations() int { return g.edges }

// reverse materializes the in-edge CSR on first use. Scattering rows in
// ascending source order keeps every in-row sorted with no extra pass.
func (g *Graph) reverse() {
	g.inOnce.Do(func() {
		deg := make([]int, len(g.ids))
		for _, v := range g.adj {
			deg[g.idx(v)]++
		}
		inOff := make([]int, len(g.ids)+1)
		for i, d := range deg {
			inOff[i+1] = inOff[i] + d
		}
		inAdj := make([]nodeid.ID, len(g.adj))
		pos := deg // reuse as write cursors
		copy(pos, inOff[:len(g.ids)])
		for i, u := range g.ids {
			for _, v := range g.adj[g.off[i]:g.off[i+1]] {
				j := g.idx(v)
				inAdj[pos[j]] = u
				pos[j]++
			}
		}
		g.inOff, g.inAdj = inOff, inAdj
	})
}

// inRow returns u's in-neighbor row (ascending), shared storage.
func (g *Graph) inRow(u nodeid.ID) nodeid.Set {
	g.reverse()
	i := g.idx(u)
	if i < 0 {
		return nil
	}
	return g.inAdj[g.inOff[i]:g.inOff[i+1]]
}

// In returns the set of nodes asserting u as their neighbor: its in-edge
// CSR row, shared with the graph.
func (g *Graph) In(u nodeid.ID) nodeid.Set { return g.inRow(u) }

// Equal reports whether the graphs have identical vertex and relation
// sets. Finalize lays every relation set out canonically, so that is
// equality of the CSR arrays.
func (g *Graph) Equal(other *Graph) bool {
	if g == nil || other == nil {
		return g == other
	}
	return slices.Equal(g.ids, other.ids) && slices.Equal(g.off, other.off) &&
		slices.Equal(g.adj, other.adj)
}

// Relabel returns a copy of the graph with every ID mapped through the
// isomorphism (IDs outside the mapping are kept). This is the B^f operation
// of Definition 3 and the core move of the Theorem 1 twin construction.
func (g *Graph) Relabel(iso nodeid.Isomorphism) *Graph {
	b := NewBuilder()
	b.Grow(len(g.ids), len(g.adj))
	for i, u := range g.ids {
		fu := iso.Apply(u)
		b.AddNode(fu)
		for _, v := range g.adj[g.off[i]:g.off[i+1]] {
			b.AddRelation(fu, iso.Apply(v))
		}
	}
	return b.Finalize()
}

// Subgraph returns the subgraph induced on the vertices in keep. It reads
// only the kept vertices' rows, so its cost follows the result, not g.
func (g *Graph) Subgraph(keep nodeid.Set) *Graph {
	b := NewBuilder()
	for _, u := range keep {
		i := g.idx(u)
		if i < 0 {
			continue
		}
		b.AddNode(u)
		for _, v := range g.adj[g.off[i]:g.off[i+1]] {
			if keep.Contains(v) {
				b.AddRelation(u, v)
			}
		}
	}
	return b.Finalize()
}

// EgoNetwork returns the subgraph a node can observe locally: the vertices
// within the given number of relation hops of u (following relations in
// either direction) and all relations among them. This models B(u), "the
// tentative neighbor relations known by u", for a localized validation
// function.
func (g *Graph) EgoNetwork(u nodeid.ID, hops int) *Graph {
	frontier := []nodeid.ID{u}
	reach := []nodeid.ID{u}
	seen := map[nodeid.ID]bool{u: true}
	for h := 0; h < hops && len(frontier) > 0; h++ {
		var next []nodeid.ID
		for _, v := range frontier {
			for _, w := range g.row(v) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
			for _, w := range g.inRow(v) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		reach = append(reach, next...)
		frontier = next
	}
	return g.Subgraph(nodeid.NewSet(reach...))
}

// Builder accumulates vertices and relations and finalizes them into a
// Graph — the only way to make one. Edges append to a flat pair buffer
// with no per-edge hashing, and Finalize canonicalizes — sorts, dedupes,
// and lays out CSR rows — so the result is independent of insertion order.
// That canonicalization is what makes the parallel per-cell truth-graph
// build bit-identical to the serial one.
//
// A Builder is not safe for concurrent use; parallel producers accumulate
// into their own pair slices and merge with AddPairs. Reset keeps the
// accumulated capacity, so pooled Builders make steady-state trial loops
// allocation-free on the build side.
type Builder struct {
	nodes []nodeid.ID
	pairs []nodeid.Pair
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Grow ensures capacity for at least the given numbers of additional
// vertices and relations.
func (b *Builder) Grow(nodes, relations int) {
	b.nodes = slices.Grow(b.nodes, nodes)
	b.pairs = slices.Grow(b.pairs, relations)
}

// AddNode records id as a vertex. Relation endpoints become vertices
// implicitly; AddNode is only needed for possibly-isolated vertices.
func (b *Builder) AddNode(id nodeid.ID) { b.nodes = append(b.nodes, id) }

// AddRelation records the relation (from, to). Self-relations are ignored
// (they do not even register their endpoint as a vertex) and duplicates
// collapse at Finalize.
func (b *Builder) AddRelation(from, to nodeid.ID) {
	if from == to {
		return
	}
	b.pairs = append(b.pairs, nodeid.Pair{From: from, To: to})
}

// AddMutual records both (a, b) and (b, a), the common case where a direct
// verification succeeds in both directions.
func (b *Builder) AddMutual(a, c nodeid.ID) {
	b.AddRelation(a, c)
	b.AddRelation(c, a)
}

// AddPairs bulk-appends relations, the merge step for parallel edge
// producers. Self-relations are ignored.
func (b *Builder) AddPairs(pairs []nodeid.Pair) {
	for _, p := range pairs {
		b.AddRelation(p.From, p.To)
	}
}

// Reset clears the builder for reuse, keeping capacity.
func (b *Builder) Reset() {
	b.nodes = b.nodes[:0]
	b.pairs = b.pairs[:0]
}

// Finalize lays the accumulated vertices and relations out as a Graph.
// The builder remains valid (and unchanged) afterwards; the returned graph
// shares no storage with it.
func (b *Builder) Finalize() *Graph {
	g := &Graph{}
	g.collectVertices(b.nodes, b.pairs)
	if len(g.ids) == 0 {
		g.off = make([]int, 1)
		return g
	}
	// Count out-degrees, prefix-sum, scatter: classic counting-sort CSR.
	deg := make([]int, len(g.ids))
	for _, p := range b.pairs {
		deg[g.idx(p.From)]++
	}
	off := make([]int, len(g.ids)+1)
	for i, d := range deg {
		off[i+1] = off[i] + d
	}
	adj := make([]nodeid.ID, off[len(g.ids)])
	pos := deg // reuse as write cursors
	copy(pos, off[:len(g.ids)])
	for _, p := range b.pairs {
		i := g.idx(p.From)
		adj[pos[i]] = p.To
		pos[i]++
	}
	g.off, g.adj = off, adj
	// Sort rows (rows are independent, so this parallelizes without
	// affecting the result), then dedupe row-by-row in one forward pass.
	g.sortRows()
	g.dedupeRows()
	g.edges = len(g.adj)
	return g
}

// collectVertices builds the sorted unique vertex list and the id->row
// lookup from explicit nodes plus relation endpoints. When the ID span is
// within denseFactor of the collected count, presence marking in a flat
// table yields the sorted list and the dense lookup in O(span); otherwise
// it sorts and compacts, and lookups binary-search the list.
func (g *Graph) collectVertices(nodes []nodeid.ID, pairs []nodeid.Pair) {
	collected := len(nodes) + 2*len(pairs)
	if collected == 0 {
		return
	}
	minID, maxID := nodeid.ID(^uint32(0)), nodeid.ID(0)
	observe := func(id nodeid.ID) {
		minID, maxID = min(minID, id), max(maxID, id)
	}
	for _, id := range nodes {
		observe(id)
	}
	for _, p := range pairs {
		observe(p.From)
		observe(p.To)
	}
	span := uint64(maxID-minID) + 1
	if span > denseFactor*uint64(collected) {
		all := make([]nodeid.ID, 0, collected)
		all = append(all, nodes...)
		for _, p := range pairs {
			all = append(all, p.From, p.To)
		}
		slices.Sort(all)
		g.ids = slices.Compact(all)
		return
	}
	present := make([]bool, span)
	n := 0
	mark := func(id nodeid.ID) {
		if !present[id-minID] {
			present[id-minID] = true
			n++
		}
	}
	for _, id := range nodes {
		mark(id)
	}
	for _, p := range pairs {
		mark(p.From)
		mark(p.To)
	}
	ids := make([]nodeid.ID, 0, n)
	dense := make([]int32, span)
	for i, ok := range present {
		if ok {
			dense[i] = int32(len(ids)) + 1
			ids = append(ids, minID+nodeid.ID(i))
		}
	}
	g.ids, g.dense, g.denseMin = ids, dense, minID
}

// sortRows sorts every adjacency row ascending, fanning rows out across
// GOMAXPROCS goroutines when the graph is large enough to benefit.
func (g *Graph) sortRows() {
	workers := runtime.GOMAXPROCS(0)
	rows := len(g.ids)
	if workers <= 1 || rows < 4096 {
		for i := 0; i < rows; i++ {
			slices.Sort(g.adj[g.off[i]:g.off[i+1]])
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				slices.Sort(g.adj[g.off[i]:g.off[i+1]])
			}
		}(lo, hi)
	}
	wg.Wait()
}

// dedupeRows removes duplicate entries within each sorted row, compacting
// adj and off in one forward pass (the write cursor never passes the read
// cursor).
func (g *Graph) dedupeRows() {
	w := 0
	for i := range g.ids {
		start, end := g.off[i], g.off[i+1]
		g.off[i] = w
		for j := start; j < end; j++ {
			if w > g.off[i] && g.adj[w-1] == g.adj[j] {
				continue
			}
			g.adj[w] = g.adj[j]
			w++
		}
	}
	g.off[len(g.ids)] = w
	g.adj = g.adj[:w]
}
