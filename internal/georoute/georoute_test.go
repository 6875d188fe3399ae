package georoute

import (
	"math/rand"
	"testing"

	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/topology"
	"snd/internal/verify"
)

// lineWorld builds positions/links for a chain of n nodes step apart, plus
// any extra (possibly phantom) relations.
func lineWorld(n int, step, r float64, extra ...nodeid.Pair) (map[nodeid.ID]geometry.Point, *topology.Graph) {
	pos := make(map[nodeid.ID]geometry.Point, n)
	g := topology.NewBuilder()
	for i := 1; i <= n; i++ {
		pos[nodeid.ID(i)] = geometry.Point{X: float64(i-1) * step, Y: 10}
		g.AddNode(nodeid.ID(i))
	}
	for a := 1; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			if pos[nodeid.ID(a)].InRange(pos[nodeid.ID(b)], r) {
				g.AddMutual(nodeid.ID(a), nodeid.ID(b))
			}
		}
	}
	g.AddPairs(extra)
	return pos, g.Finalize()
}

func TestGreedyDeliversOnLine(t *testing.T) {
	pos, g := lineWorld(10, 30, 50)
	r := New(pos, g, nil)
	res, err := r.Route(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("line route failed: %+v", res)
	}
	if res.Hops < 5 || res.Hops > 9 {
		t.Errorf("hops = %d on a 9-link chain with 30 m steps, R=50", res.Hops)
	}
	if res.PerimeterHops != 0 {
		t.Errorf("perimeter used on a straight line: %d", res.PerimeterHops)
	}
}

func TestUnknownEndpoints(t *testing.T) {
	pos, g := lineWorld(3, 30, 50)
	r := New(pos, g, nil)
	if _, err := r.Route(99, 1); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := r.Route(1, 99); err == nil {
		t.Error("unknown destination accepted")
	}
}

func TestSelfRoute(t *testing.T) {
	pos, g := lineWorld(3, 30, 50)
	r := New(pos, g, nil)
	res, err := r.Route(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Hops != 0 {
		t.Errorf("self route = %+v", res)
	}
}

func TestPerimeterEscapesVoid(t *testing.T) {
	// A "U" around a void: greedy from the left arm toward the right arm
	// gets stuck at the tip, perimeter routing goes around.
	pos := map[nodeid.ID]geometry.Point{
		1: {X: 0, Y: 100},  // source (top left)
		2: {X: 0, Y: 60},   // down the left arm
		3: {X: 0, Y: 20},   //
		4: {X: 40, Y: 0},   // bottom of the U
		5: {X: 80, Y: 20},  // up the right arm
		6: {X: 80, Y: 60},  //
		7: {X: 80, Y: 100}, // destination (top right)
		8: {X: 40, Y: -30}, // extra bottom node
	}
	b := topology.NewBuilder()
	link := func(x, y nodeid.ID) { b.AddMutual(x, y) }
	link(1, 2)
	link(2, 3)
	link(3, 4)
	link(4, 5)
	link(5, 6)
	link(6, 7)
	link(4, 8)
	r := New(pos, b.Finalize(), nil)
	res, err := r.Route(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("U-route failed: %+v", res)
	}
	if res.PerimeterHops == 0 {
		t.Error("route around a void without perimeter mode is impossible; greedy must have been wrongly sufficient")
	}
}

func TestStuckWhenDisconnected(t *testing.T) {
	pos := map[nodeid.ID]geometry.Point{
		1: {X: 0, Y: 0},
		2: {X: 10, Y: 0},
		3: {X: 500, Y: 0},
	}
	b := topology.NewBuilder()
	b.AddMutual(1, 2)
	b.AddNode(3)
	r := New(pos, b.Finalize(), nil)
	res, err := r.Route(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Error("delivered across a disconnected graph")
	}
	if res.LostAtPhantom {
		t.Error("disconnection misreported as phantom loss")
	}
}

func TestPhantomNeighborLosesPacket(t *testing.T) {
	// The attack effect from the paper's introduction: the neighbor table
	// claims a far-away node is adjacent (a replica made it so), greedy
	// forwards to it, and the packet is lost because the real node is not
	// within radio range.
	// Poison node 2's table: node 6 (150 m away) appears adjacent.
	pos, g := lineWorld(6, 30, 50, nodeid.Pair{From: 2, To: 6})
	reach := func(a, b nodeid.ID) bool {
		return pos[a].InRange(pos[b], 50) // physics
	}
	r := New(pos, g, reach)
	res, err := r.Route(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Fatal("delivered through a phantom link")
	}
	if !res.LostAtPhantom {
		t.Errorf("loss not attributed to phantom neighbor: %+v", res)
	}
}

func TestEvaluateOverRandomDeployment(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(200, 200))
	rng := rand.New(rand.NewSource(5))
	l.DeploySampled(deploy.Uniform{}, 250, rng, 0)
	g := verify.TentativeGraph(l, verify.Oracle{}, 40)
	pos := make(map[nodeid.ID]geometry.Point)
	for _, d := range l.Devices() {
		pos[d.Node] = d.Pos
	}
	r := New(pos, g, nil)

	const attempts = 100
	var delivered, hops, phantomLosses int
	ids := g.Nodes()
	for i := 0; i < attempts; i++ {
		res, err := r.Route(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered {
			delivered++
			hops += res.Hops
		} else if res.LostAtPhantom {
			phantomLosses++
		}
	}
	// A 250-node/200 m²/R=40 deployment is essentially connected: GPSR
	// should deliver the large majority.
	if rate := float64(delivered) / attempts; rate < 0.8 {
		t.Errorf("delivery rate %v too low for a dense connected network", rate)
	}
	if meanHops := float64(hops) / float64(delivered); meanHops <= 1 {
		t.Errorf("mean hops %v implausible", meanHops)
	}
	if phantomLosses != 0 {
		t.Errorf("phantom losses %d over truthful tables", phantomLosses)
	}
}

func TestGabrielGraphIsSubgraph(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(100, 100))
	rng := rand.New(rand.NewSource(6))
	l.DeploySampled(deploy.Uniform{}, 80, rng, 0)
	g := verify.TentativeGraph(l, verify.Oracle{}, 40)
	pos := make(map[nodeid.ID]geometry.Point)
	for _, d := range l.Devices() {
		pos[d.Node] = d.Pos
	}
	r := New(pos, g, nil)
	total := 0
	for u, adj := range r.planar {
		total += len(adj)
		for _, v := range adj {
			if !g.HasRelation(u, v) {
				t.Fatalf("planar edge (%v,%v) not in the original graph", u, v)
			}
		}
	}
	if total == 0 {
		t.Fatal("empty planarization")
	}
	if total >= g.NumRelations() {
		t.Errorf("gabriel graph (%d) did not prune any of %d relations", total, g.NumRelations())
	}
}

func BenchmarkRoute(b *testing.B) {
	l := deploy.NewLayout(geometry.NewField(200, 200))
	rng := rand.New(rand.NewSource(7))
	l.DeploySampled(deploy.Uniform{}, 250, rng, 0)
	g := verify.TentativeGraph(l, verify.Oracle{}, 40)
	pos := make(map[nodeid.ID]geometry.Point)
	for _, d := range l.Devices() {
		pos[d.Node] = d.Pos
	}
	r := New(pos, g, nil)
	ids := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Route(ids[i%len(ids)], ids[(i*7+3)%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}
