package topology

import (
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"snd/internal/nodeid"
)

// oracle is the test-only reference model of a relation graph: a vertex
// set plus a relation set, with every query answered by brute force over
// maps. It shares no code with Graph, so agreement between the two is
// evidence.
type oracle struct {
	nodes map[nodeid.ID]bool
	rel   map[nodeid.Pair]bool
}

// hasNode reports whether id is a vertex of g.
func hasNode(g *Graph, id nodeid.ID) bool { return g.idx(id) >= 0 }

func newOracle() *oracle {
	return &oracle{nodes: make(map[nodeid.ID]bool), rel: make(map[nodeid.Pair]bool)}
}

func (o *oracle) addNode(u nodeid.ID) { o.nodes[u] = true }

func (o *oracle) addRelation(u, v nodeid.ID) {
	if u == v {
		return
	}
	o.nodes[u] = true
	o.nodes[v] = true
	o.rel[nodeid.Pair{From: u, To: v}] = true
}

// sortedIDs lists a membership map's IDs ascending, as a Set.
func sortedIDs(m map[nodeid.ID]bool) nodeid.Set {
	ids := make([]nodeid.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (o *oracle) out(u nodeid.ID) nodeid.Set {
	s := make(map[nodeid.ID]bool)
	for p := range o.rel {
		if p.From == u {
			s[p.To] = true
		}
	}
	return sortedIDs(s)
}

func (o *oracle) in(u nodeid.ID) nodeid.Set {
	s := make(map[nodeid.ID]bool)
	for p := range o.rel {
		if p.To == u {
			s[p.From] = true
		}
	}
	return sortedIDs(s)
}

func (o *oracle) commonOut(u, v nodeid.ID) int {
	n := 0
	for p := range o.rel {
		if p.From == u && o.rel[nodeid.Pair{From: v, To: p.To}] {
			n++
		}
	}
	return n
}

// partitions labels every vertex with the smallest ID it is weakly
// connected to, relaxing over all relations until nothing changes, then
// orders the groups largest first, ties by smallest member.
func (o *oracle) partitions() [][]nodeid.ID {
	label := make(map[nodeid.ID]nodeid.ID, len(o.nodes))
	for u := range o.nodes {
		label[u] = u
	}
	for changed := true; changed; {
		changed = false
		for p := range o.rel {
			lo := min(label[p.From], label[p.To])
			for _, x := range []nodeid.ID{p.From, p.To} {
				if label[x] != lo {
					label[x] = lo
					changed = true
				}
			}
		}
	}
	groups := make(map[nodeid.ID][]nodeid.ID)
	for _, u := range sortedIDs(o.nodes) {
		groups[label[u]] = append(groups[label[u]], u)
	}
	var parts [][]nodeid.ID
	for _, g := range groups {
		parts = append(parts, g)
	}
	sort.Slice(parts, func(i, j int) bool {
		if len(parts[i]) != len(parts[j]) {
			return len(parts[i]) > len(parts[j])
		}
		return parts[i][0] < parts[j][0]
	})
	return parts
}

// isolated returns the members of the partitions the policy rejects.
func (o *oracle) isolated(policy UsefulPolicy) []nodeid.ID {
	var ids []nodeid.ID
	for rank, members := range o.partitions() {
		if !policy.Useful(rank, Partition{Members: nodeid.NewSet(members...)}) {
			ids = append(ids, members...)
		}
	}
	slices.Sort(ids)
	return ids
}

func (o *oracle) relabel(iso nodeid.Isomorphism) *oracle {
	r := newOracle()
	for u := range o.nodes {
		r.addNode(iso.Apply(u))
	}
	for p := range o.rel {
		r.addRelation(iso.Apply(p.From), iso.Apply(p.To))
	}
	return r
}

func (o *oracle) subgraph(keep map[nodeid.ID]bool) *oracle {
	s := newOracle()
	for u := range o.nodes {
		if keep[u] {
			s.addNode(u)
		}
	}
	for p := range o.rel {
		if keep[p.From] && keep[p.To] {
			s.addRelation(p.From, p.To)
		}
	}
	return s
}

// ego grows the reach set one hop at a time across relations in either
// direction.
func (o *oracle) ego(u nodeid.ID, hops int) *oracle {
	reach := map[nodeid.ID]bool{u: true}
	for h := 0; h < hops; h++ {
		next := maps.Clone(reach)
		for p := range o.rel {
			if reach[p.From] {
				next[p.To] = true
			}
			if reach[p.To] {
				next[p.From] = true
			}
		}
		reach = next
	}
	return o.subgraph(reach)
}

// build finalizes the oracle's content, fed to the Builder in a shuffled
// order so the CSR's insertion-order independence is exercised too.
func (o *oracle) build(rng *rand.Rand) *Graph {
	b := NewBuilder()
	var pairs []nodeid.Pair
	for p := range o.rel {
		pairs = append(pairs, p)
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for _, p := range pairs {
		b.AddRelation(p.From, p.To)
	}
	for u := range o.nodes {
		b.AddNode(u)
	}
	return b.Finalize()
}

// scriptFromOps replays a random add/mutual/node script onto an oracle and
// a Builder side by side.
func scriptFromOps(rng *rand.Rand, ops, idRange int) (*oracle, *Graph) {
	o, b := newOracle(), NewBuilder()
	for i := 0; i < ops; i++ {
		u := nodeid.ID(rng.Intn(idRange) + 1)
		v := nodeid.ID(rng.Intn(idRange) + 1)
		switch rng.Intn(6) {
		case 0, 1, 2:
			o.addRelation(u, v)
			b.AddRelation(u, v)
		case 3, 4:
			o.addRelation(u, v)
			o.addRelation(v, u)
			b.AddMutual(u, v)
		case 5:
			o.addNode(u)
			b.AddNode(u)
		}
	}
	return o, b.Finalize()
}

// assertMatchesOracle checks every read accessor of g against the oracle
// over the probe ID range (which must cover the graph's IDs plus some
// absent ones).
func assertMatchesOracle(t *testing.T, o *oracle, g *Graph, idRange int) {
	t.Helper()
	if g.NumNodes() != len(o.nodes) || g.NumRelations() != len(o.rel) {
		t.Fatalf("counts: graph %d/%d, oracle %d/%d",
			g.NumNodes(), g.NumRelations(), len(o.nodes), len(o.rel))
	}
	want := sortedIDs(o.nodes)
	if !slices.Equal(g.Nodes(), want) {
		t.Fatalf("Nodes: graph %v, oracle %v", g.Nodes(), want)
	}
	if !slices.Equal(g.Nodes(), want) {
		t.Fatal("NodeSet mismatch")
	}
	for u := nodeid.ID(0); u <= nodeid.ID(idRange)+1; u++ {
		if hasNode(g, u) != o.nodes[u] {
			t.Fatalf("hasNode(%v) = %v", u, hasNode(g, u))
		}
		out, in := o.out(u), o.in(u)
		if !slices.Equal(g.Out(u), out) {
			t.Fatalf("Out(%v): graph %v, oracle %v", u, g.Out(u), out)
		}
		if !slices.Equal(g.In(u), in) {
			t.Fatalf("In(%v): graph %v, oracle %v", u, g.In(u), in)
		}
		for v := nodeid.ID(0); v <= nodeid.ID(idRange)+1; v++ {
			rel := o.rel[nodeid.Pair{From: u, To: v}]
			if g.HasRelation(u, v) != rel {
				t.Fatalf("HasRelation(%v,%v) = %v", u, v, !rel)
			}
			if g.HasMutual(u, v) != (rel && o.rel[nodeid.Pair{From: v, To: u}]) {
				t.Fatalf("HasMutual(%v,%v) differs", u, v)
			}
			if got, want := g.CommonOut(u, v), o.commonOut(u, v); got != want {
				t.Fatalf("CommonOut(%v,%v): graph %d, oracle %d", u, v, got, want)
			}
		}
	}
	gp, op := g.Partitions(), o.partitions()
	if len(gp) != len(op) {
		t.Fatalf("partition count: graph %d, oracle %d", len(gp), len(op))
	}
	for i := range gp {
		if !slices.Equal(gp[i].Members, op[i]) {
			t.Fatalf("partition %d: graph %v, oracle %v", i, gp[i].Members, op[i])
		}
	}
	for _, policy := range []UsefulPolicy{LargestOnly{}, MinSize{N: 2}, MinSize{N: 4}} {
		if got, want := g.IsolatedNodes(policy), o.isolated(policy); !slices.Equal(got, want) {
			t.Fatalf("IsolatedNodes(%T): graph %v, oracle %v", policy, got, want)
		}
	}
}

// TestFreezeDifferential is the representation-equivalence property test:
// for random add/mutual/relabel/subgraph/ego scripts, the CSR graph agrees
// with the brute-force oracle on every read accessor.
func TestFreezeDifferential(t *testing.T) {
	const idRange = 24
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o, g := scriptFromOps(rng, 200, idRange)
		assertMatchesOracle(t, o, g, idRange)
		if !o.build(rng).Equal(g) {
			t.Fatal("oracle rebuilt in shuffled order differs from the scripted graph")
		}

		// Derived graphs keep the property: relabel through a random
		// permutation shifted by idRange...
		from := g.Nodes()
		to := make([]nodeid.ID, len(from))
		for i, p := range rng.Perm(len(from)) {
			to[i] = from[p] + idRange
		}
		iso, err := nodeid.NewIsomorphism(from, to)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesOracle(t, o.relabel(iso), g.Relabel(iso), 2*idRange)

		// ...a random induced subgraph...
		keep := map[nodeid.ID]bool{idRange + 5: true} // absent IDs in keep are ignored
		for _, id := range from {
			if rng.Intn(2) == 0 {
				keep[id] = true
			}
		}
		assertMatchesOracle(t, o.subgraph(keep), g.Subgraph(sortedIDs(keep)), idRange+5)

		// ...and ego networks of every radius up to the graph's size.
		if len(from) > 0 {
			u := from[rng.Intn(len(from))]
			for _, hops := range []int{0, 1, 2, idRange} {
				assertMatchesOracle(t, o.ego(u, hops), g.EgoNetwork(u, hops), idRange)
			}
		}
	}
}

// TestFreezeSnapshotIndependence: a finalized graph is a deep snapshot —
// recording more into the builder afterwards must not leak through.
func TestFreezeSnapshotIndependence(t *testing.T) {
	b := NewBuilder()
	b.AddMutual(1, 2)
	g := b.Finalize()
	b.AddMutual(2, 3)
	b.AddNode(4)
	if hasNode(g, 3) || hasNode(g, 4) || !g.HasMutual(1, 2) || g.NumRelations() != 2 {
		t.Errorf("finalized graph tracked later builder input: %v relations", g.NumRelations())
	}
}

// TestCompactSparseIDSpan exercises the binary-search fallback: an ID span
// far wider than the input must leave out the dense lookup table yet
// behave identically.
func TestCompactSparseIDSpan(t *testing.T) {
	far := nodeid.ID(1) << 30
	o := newOracle()
	o.addRelation(1, 2)
	o.addRelation(2, 1)
	o.addRelation(2, far)
	o.addNode(far + 1)
	g := o.build(rand.New(rand.NewSource(1)))
	if g.dense != nil {
		t.Fatal("dense table built for a sparse ID span")
	}
	if g.NumNodes() != 4 || g.NumRelations() != 3 {
		t.Fatalf("nodes=%d relations=%d", g.NumNodes(), g.NumRelations())
	}
	if !g.HasRelation(2, far) || g.HasRelation(far, 2) || !g.HasMutual(1, 2) {
		t.Error("sparse-span relations wrong")
	}
	if hasNode(g, 3) || !hasNode(g, far+1) || len(g.In(far)) != 1 {
		t.Error("sparse-span membership wrong")
	}
}

// TestSubgraphOfWideIDSpanIsSmall: the dense table is sized from the
// input, so inducing three vertices of a graph whose IDs span 1..10⁶
// allocates in proportion to the three, not to the span.
func TestSubgraphOfWideIDSpanIsSmall(t *testing.T) {
	b := NewBuilder()
	for id := nodeid.ID(1); id <= 1_000_000; id += 1000 {
		b.AddMutual(id, id+999)
	}
	b.AddMutual(1, 1_000_000)
	g := b.Finalize()
	keep := nodeid.NewSet(1, 1000, 1_000_000)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sub := g.Subgraph(keep)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("Subgraph of 3 vertices allocated %d B, want < 64 KiB", got)
	}
	if sub.NumNodes() != 3 || !sub.HasMutual(1, 1000) || !sub.HasMutual(1, 1_000_000) ||
		sub.NumRelations() != 4 {
		t.Errorf("subgraph nodes %v, %d relations", sub.Nodes(), sub.NumRelations())
	}
}

// TestBuilderCanonicalizes: duplicates and self-relations collapse at
// Finalize, and insertion order is irrelevant — the core of the parallel
// build's determinism argument.
func TestBuilderCanonicalizes(t *testing.T) {
	b := NewBuilder()
	b.AddRelation(3, 1)
	b.AddRelation(1, 3)
	b.AddRelation(3, 1) // duplicate
	b.AddRelation(2, 2) // self, ignored
	b.AddPairs([]nodeid.Pair{{From: 3, To: 1}, {From: 4, To: 4}, {From: 1, To: 2}})
	b.AddNode(9)
	c := b.Finalize()
	if c.NumRelations() != 3 {
		t.Fatalf("relations = %d, want 3", c.NumRelations())
	}
	// Self-relations vanish entirely: they do not even register their
	// endpoint as a vertex.
	if !slices.Equal(c.Nodes(), []nodeid.ID{1, 2, 3, 9}) {
		t.Fatalf("nodes = %v", c.Nodes())
	}
	if !slices.Equal(c.Out(1), []nodeid.ID{2, 3}) || !slices.Equal(c.Out(3), []nodeid.ID{1}) {
		t.Fatalf("rows: 1->%v 3->%v", c.Out(1), c.Out(3))
	}

	// Same content in reversed insertion order finalizes to the same CSR.
	b2 := NewBuilder()
	b2.AddNode(9)
	b2.AddPairs([]nodeid.Pair{{From: 1, To: 2}, {From: 4, To: 4}, {From: 3, To: 1}})
	b2.AddRelation(2, 2)
	b2.AddRelation(3, 1)
	b2.AddRelation(1, 3)
	b2.AddRelation(3, 1)
	c2 := b2.Finalize()
	if !reflect.DeepEqual(c.ids, c2.ids) || !reflect.DeepEqual(c.off, c2.off) ||
		!reflect.DeepEqual(c.adj, c2.adj) {
		t.Fatal("finalized CSR depends on insertion order")
	}
}

// TestBuilderReuseAfterReset: a Reset builder (the pooled path) must not
// leak state into the next graph, and Finalize must not disturb the
// builder.
func TestBuilderReuseAfterReset(t *testing.T) {
	b := NewBuilder()
	b.Grow(4, 8)
	b.AddMutual(1, 2)
	first := b.Finalize()
	// Builder still valid: finalizing again reproduces the same graph.
	if again := b.Finalize(); !again.Equal(first) {
		t.Fatal("second Finalize differs")
	}
	b.Reset()
	b.AddMutual(7, 8)
	second := b.Finalize()
	if hasNode(second, 1) || !second.HasMutual(7, 8) || second.NumNodes() != 2 {
		t.Fatalf("reset builder leaked state: nodes %v", second.Nodes())
	}
	if !first.HasMutual(1, 2) {
		t.Fatal("earlier graph shares storage with reused builder")
	}
}

// TestCompactEmpty: zero-value-ish cases stay well-defined.
func TestCompactEmpty(t *testing.T) {
	c := NewBuilder().Finalize()
	if c.NumNodes() != 0 || c.NumRelations() != 0 || hasNode(c, 1) {
		t.Error("empty graph not empty")
	}
	if got := c.Partitions(); len(got) != 0 {
		t.Errorf("empty partitions = %v", got)
	}
	if len(c.Out(5)) != 0 || len(c.In(5)) != 0 || c.CommonOut(1, 2) != 0 {
		t.Error("absent-node accessors nonzero")
	}
}

func TestAddRelationBasics(t *testing.T) {
	g := build(func(b *Builder) { b.AddRelation(1, 2) })
	if !g.HasRelation(1, 2) {
		t.Error("relation missing")
	}
	if g.HasRelation(2, 1) {
		t.Error("reverse relation should not exist")
	}
	if g.NumNodes() != 2 || g.NumRelations() != 1 {
		t.Errorf("nodes=%d relations=%d", g.NumNodes(), g.NumRelations())
	}
}

func TestAddRelationIgnoresSelfAndDuplicates(t *testing.T) {
	if g := build(func(b *Builder) { b.AddRelation(1, 1) }); g.NumRelations() != 0 {
		t.Error("self relation added")
	}
	g := build(func(b *Builder) {
		b.AddRelation(1, 2)
		b.AddRelation(1, 2)
	})
	if g.NumRelations() != 1 {
		t.Errorf("duplicate counted: %d", g.NumRelations())
	}
}

func TestAddMutual(t *testing.T) {
	g := build(func(b *Builder) { b.AddMutual(1, 2) })
	if !g.HasMutual(1, 2) || !g.HasMutual(2, 1) {
		t.Error("mutual relation missing")
	}
	if g.NumRelations() != 2 {
		t.Errorf("relations = %d", g.NumRelations())
	}
}

// TestOutInShareRows: Out and In hand out the CSR rows themselves, with
// no copy per call.
func TestOutInShareRows(t *testing.T) {
	g := build(func(b *Builder) {
		b.AddRelation(1, 3)
		b.AddRelation(1, 2)
		b.AddRelation(4, 2)
	})
	if !slices.Equal(g.Out(1), nodeid.Set{2, 3}) || !slices.Equal(g.In(2), nodeid.Set{1, 4}) {
		t.Fatalf("Out(1) = %v, In(2) = %v", g.Out(1), g.In(2))
	}
	if &g.Out(1)[0] != &g.Out(1)[0] {
		t.Error("Out copies its row")
	}
	if n := testing.AllocsPerRun(100, func() { _ = g.Out(1) }); n != 0 {
		t.Errorf("Out allocates %v times, want 0", n)
	}
	// Unknown node yields empty set, not nil panic.
	if g.Out(42).Len() != 0 {
		t.Error("Out of unknown node non-empty")
	}
}

func TestCommonOut(t *testing.T) {
	// u and v share neighbors 10, 11; u also has 12, v also has 13.
	g := build(func(b *Builder) {
		for _, n := range []nodeid.ID{10, 11, 12} {
			b.AddRelation(1, n)
		}
		for _, n := range []nodeid.ID{10, 11, 13} {
			b.AddRelation(2, n)
		}
	})
	if got := g.CommonOut(1, 2); got != 2 {
		t.Errorf("CommonOut = %d, want 2", got)
	}
	if got := g.CommonOut(1, 99); got != 0 {
		t.Errorf("CommonOut with unknown = %d", got)
	}
}

func TestRelabel(t *testing.T) {
	g := build(func(b *Builder) {
		b.AddRelation(1, 2)
		b.AddRelation(2, 3)
	})
	iso, err := nodeid.NewIsomorphism([]nodeid.ID{1, 2, 3}, []nodeid.ID{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	r := g.Relabel(iso)
	if !r.HasRelation(10, 20) || !r.HasRelation(20, 30) {
		t.Error("relabeled relations missing")
	}
	if r.HasRelation(1, 2) {
		t.Error("old relations remain")
	}
	if r.NumNodes() != 3 || r.NumRelations() != 2 {
		t.Errorf("nodes=%d relations=%d", r.NumNodes(), r.NumRelations())
	}
	// Relabel keeps unmapped IDs.
	partial, _ := nodeid.NewIsomorphism([]nodeid.ID{1}, []nodeid.ID{9})
	p := g.Relabel(partial)
	if !p.HasRelation(9, 2) || !p.HasRelation(2, 3) {
		t.Error("partial relabel wrong")
	}
}

// pathGraph builds the mutual path 1 - 2 - ... - n.
func pathGraph(n int) *Graph {
	return build(func(b *Builder) {
		for i := 1; i < n; i++ {
			b.AddMutual(nodeid.ID(i), nodeid.ID(i+1))
		}
	})
}

func TestSubgraph(t *testing.T) {
	g := pathGraph(4)
	s := g.Subgraph(nodeid.NewSet(1, 2, 3))
	if s.NumNodes() != 3 {
		t.Errorf("nodes = %d", s.NumNodes())
	}
	if !s.HasMutual(1, 2) || !s.HasMutual(2, 3) {
		t.Error("induced relations missing")
	}
	if hasNode(s, 4) || s.HasRelation(3, 4) {
		t.Error("excluded node leaked")
	}
}

func TestEgoNetwork(t *testing.T) {
	g := pathGraph(4)
	e1 := g.EgoNetwork(2, 1)
	if !hasNode(e1, 1) || !hasNode(e1, 3) || hasNode(e1, 4) {
		t.Errorf("1-hop ego of 2 has nodes %v", e1.Nodes())
	}
	e2 := g.EgoNetwork(1, 2)
	if !hasNode(e2, 3) || hasNode(e2, 4) {
		t.Errorf("2-hop ego of 1 has nodes %v", e2.Nodes())
	}
	// Ego follows in-edges too.
	d := build(func(b *Builder) { b.AddRelation(5, 6) }) // only 5 -> 6
	if ego := d.EgoNetwork(6, 1); !hasNode(ego, 5) {
		t.Error("ego ignored incoming relation")
	}
}

func TestEqual(t *testing.T) {
	a := build(func(b *Builder) { b.AddMutual(1, 2) })
	if !a.Equal(build(func(b *Builder) { b.AddMutual(1, 2) })) {
		t.Error("equal graphs reported unequal")
	}
	if a.Equal(build(func(b *Builder) { b.AddMutual(1, 2); b.AddNode(3) })) {
		t.Error("different vertex sets reported equal")
	}
	if a.Equal(build(func(b *Builder) { b.AddMutual(1, 3); b.AddNode(2) })) {
		t.Error("different relation sets reported equal")
	}
	churn := build(func(b *Builder) {
		b.AddRelation(2, 1)
		b.AddNode(2)
		b.AddRelation(1, 2)
		b.AddRelation(2, 1)
	})
	if !a.Equal(churn) {
		t.Error("same content in another order reported unequal")
	}
	var none *Graph
	if a.Equal(none) || !none.Equal(nil) {
		t.Error("nil graphs compare wrong")
	}
}

func TestRandomGraphInvariants(t *testing.T) {
	// Property: the relation count matches the Out sets, and In is always
	// the transpose of Out.
	rng := rand.New(rand.NewSource(9))
	_, g := scriptFromOps(rng, 2000, 30)
	count := 0
	for _, u := range g.Nodes() {
		out := g.Out(u)
		count += out.Len()
		for _, v := range out {
			if !g.In(v).Contains(u) {
				t.Fatalf("in/out inconsistent for (%v,%v)", u, v)
			}
		}
	}
	if count != g.NumRelations() {
		t.Fatalf("edge count %d != sum of out degrees %d", g.NumRelations(), count)
	}
}

func BenchmarkCommonOut(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := build(func(bl *Builder) {
		for i := 0; i < 150; i++ {
			bl.AddRelation(1, nodeid.ID(rng.Intn(400)+10))
			bl.AddRelation(2, nodeid.ID(rng.Intn(400)+10))
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.CommonOut(1, 2)
	}
}
