package central

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/topology"
	"snd/internal/verify"
)

// detectBySubgraph is the reference detector: induce the subgraph on N(v)
// and count its weak components with Partitions.
func detectBySubgraph(g *topology.Graph, minComponent int) []nodeid.ID {
	minComponent = max(minComponent, 1)
	var flagged []nodeid.ID
	for _, v := range g.Nodes() {
		if len(g.Out(v)) < 2*minComponent {
			continue
		}
		big := 0
		for _, part := range g.Subgraph(g.Out(v)).Partitions() {
			if part.Size() >= minComponent {
				big++
			}
		}
		if big >= 2 {
			flagged = append(flagged, v)
		}
	}
	return flagged
}

// TestDetectSplitMatchesSubgraphOracle: the union-find detector flags
// exactly the IDs the Subgraph+Partitions reference flags, on random
// layouts with replicas planted 1R, 3R and 6R from their originals.
func TestDetectSplitMatchesSubgraphOracle(t *testing.T) {
	const r = 25.0
	flagged := 0
	for seed := int64(1); seed <= 6; seed++ {
		for _, k := range []float64{1, 3, 6} {
			rng := rand.New(rand.NewSource(seed))
			l := deploy.NewLayout(geometry.NewField(200, 200))
			l.DeploySampled(deploy.Uniform{}, 220, rng, 0)
			for _, victim := range l.Devices()[:4] {
				angle := rng.Float64() * 2 * math.Pi
				at := victim.Pos.Add(geometry.Point{X: k * r * math.Cos(angle), Y: k * r * math.Sin(angle)})
				if _, err := l.DeployReplica(victim.Node, at, 1); err != nil {
					t.Fatal(err)
				}
			}
			g := verify.TentativeGraph(l, verify.Oracle{}, r)
			for _, mc := range []int{1, 2, 3} {
				got, want := DetectSplitNeighborhoods(g, mc), detectBySubgraph(g, mc)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, %gR, minComponent %d: got %v, want %v", seed, k, mc, got, want)
				}
				flagged += len(got)
			}
		}
	}
	if flagged == 0 {
		t.Fatal("no identity flagged in any layout; the comparison is vacuous")
	}
}

func TestDetectSplitNeighborhoodsBenign(t *testing.T) {
	// A benign uniform deployment: neighborhoods are single patches, no
	// identity should be flagged.
	l := deploy.NewLayout(geometry.NewField(100, 100))
	rng := rand.New(rand.NewSource(1))
	l.DeploySampled(deploy.Uniform{}, 150, rng, 0)
	g := verify.TentativeGraph(l, verify.Oracle{}, 40)
	if flagged := DetectSplitNeighborhoods(g, 2); len(flagged) != 0 {
		t.Errorf("benign network flagged: %v", flagged)
	}
}

func TestDetectSplitNeighborhoodsReplica(t *testing.T) {
	// One replica far from home: the victim's neighborhood becomes two
	// disconnected patches and the central detector sees it.
	l := deploy.NewLayout(geometry.NewField(200, 200))
	rng := rand.New(rand.NewSource(2))
	l.DeploySampled(deploy.Uniform{}, 300, rng, 0)
	victim := l.Devices()[0]
	far := geometry.Point{X: 200 - victim.Pos.X, Y: 200 - victim.Pos.Y}
	if victim.Pos.Dist(far) < 120 {
		t.Skip("victim landed mid-field; scenario ambiguous")
	}
	if _, err := l.DeployReplica(victim.Node, far, 1); err != nil {
		t.Fatal(err)
	}
	g := verify.TentativeGraph(l, verify.Oracle{}, 30)
	flagged := DetectSplitNeighborhoods(g, 2)
	found := false
	for _, id := range flagged {
		if id == victim.Node {
			found = true
		}
	}
	if !found {
		t.Errorf("victim %v not flagged; flagged = %v", victim.Node, flagged)
	}
	// And no more than a handful of false positives.
	if len(flagged) > 5 {
		t.Errorf("too many flags: %v", flagged)
	}
}

func TestDetectSplitBlindSpotNearbyReplica(t *testing.T) {
	// Documented limitation: a replica planted within ~3R of home bridges
	// the two neighborhood patches and evades the central detector —
	// unlike the paper's protocol, which contains even nearby replicas.
	l := deploy.NewLayout(geometry.NewField(200, 200))
	rng := rand.New(rand.NewSource(9))
	l.DeploySampled(deploy.Uniform{}, 400, rng, 0)
	victim := l.ClosestToCenter()
	const r = 30.0
	near := victim.Pos.Add(geometry.Point{X: 2 * r, Y: 0}) // 2R < 3R away
	if _, err := l.DeployReplica(victim.Node, near, 1); err != nil {
		t.Fatal(err)
	}
	g := verify.TentativeGraph(l, verify.Oracle{}, r)
	for _, id := range DetectSplitNeighborhoods(g, 2) {
		if id == victim.Node {
			t.Error("nearby replica unexpectedly detected; blind-spot documentation is stale")
		}
	}
}

func TestDetectSplitIgnoresSmallNeighborhoods(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(300, 50))
	a := l.Deploy(geometry.Point{X: 0, Y: 25}, 0)
	l.Deploy(geometry.Point{X: 20, Y: 25}, 0)
	// A single far "neighbor" via replica, below minComponent.
	if _, err := l.DeployReplica(a.Node, geometry.Point{X: 280, Y: 25}, 1); err != nil {
		t.Fatal(err)
	}
	l.Deploy(geometry.Point{X: 290, Y: 25}, 0)
	g := verify.TentativeGraph(l, verify.Oracle{}, 30)
	if flagged := DetectSplitNeighborhoods(g, 2); len(flagged) != 0 {
		t.Errorf("single-straggler neighborhoods flagged: %v", flagged)
	}
}

func TestCollectionCost(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(100, 100))
	a := l.Deploy(geometry.Point{X: 10, Y: 50}, 0) // 1 hop from bs
	b := l.Deploy(geometry.Point{X: 90, Y: 50}, 0) // 4 hops at R=25... dist 80 → 4
	dead := l.Deploy(geometry.Point{X: 50, Y: 50}, 0)
	l.Kill(dead.Handle)
	if _, err := l.DeployReplica(a.Node, geometry.Point{X: 99, Y: 99}, 1); err != nil {
		t.Fatal(err)
	}

	bs := geometry.Point{X: 10, Y: 50}
	cost := CollectionCost(l, 25, bs, func(nodeid.ID) int { return 100 })
	// a: 1 hop (co-located clamps to 1); b: ceil(80/25) = 4 hops; dead and
	// replica excluded.
	if cost.Messages != 5 {
		t.Errorf("Messages = %d, want 5", cost.Messages)
	}
	if cost.Bytes != 500 {
		t.Errorf("Bytes = %d, want 500", cost.Bytes)
	}
	if cost.MaxNodeLoad != 4 {
		t.Errorf("MaxNodeLoad = %d, want 4", cost.MaxNodeLoad)
	}
	_ = b
}
