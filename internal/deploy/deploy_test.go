package deploy

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"snd/internal/geometry"
	"snd/internal/nodeid"
)

func newTestLayout() *Layout {
	return NewLayout(geometry.NewField(100, 100))
}

func TestDeployAssignsFreshIdentities(t *testing.T) {
	l := newTestLayout()
	a := l.Deploy(geometry.Point{X: 1, Y: 1}, 0)
	b := l.Deploy(geometry.Point{X: 2, Y: 2}, 0)
	if a.Node == b.Node {
		t.Error("two deployments share a logical ID")
	}
	if a.Handle == b.Handle {
		t.Error("two deployments share a handle")
	}
	if a.Node == nodeid.None || a.Handle == 0 {
		t.Error("reserved identifiers assigned")
	}
	if !a.Alive || a.Replica {
		t.Errorf("fresh device state = %+v", a)
	}
	if a.Origin != a.Pos {
		t.Error("origin differs from deployment position")
	}
}

func TestDeployReplica(t *testing.T) {
	l := newTestLayout()
	orig := l.Deploy(geometry.Point{X: 10, Y: 10}, 0)
	rep, err := l.DeployReplica(orig.Node, geometry.Point{X: 90, Y: 90}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Node != orig.Node {
		t.Error("replica has different logical ID")
	}
	if rep.Handle == orig.Handle {
		t.Error("replica shares handle")
	}
	if !rep.Replica {
		t.Error("replica not flagged")
	}
	var devs []*Device
	l.ForEachDeviceOf(orig.Node, func(d *Device) { devs = append(devs, d) })
	if len(devs) != 2 {
		t.Fatalf("ForEachDeviceOf visited %d devices", len(devs))
	}
	if devs[0].Replica || !devs[1].Replica {
		t.Error("originals-first ordering violated")
	}
	if p := l.Primary(orig.Node); p == nil || p.Handle != orig.Handle {
		t.Error("Primary did not return the original device")
	}
}

func TestDeployReplicaUnknownNode(t *testing.T) {
	l := newTestLayout()
	if _, err := l.DeployReplica(99, geometry.Point{}, 0); err == nil {
		t.Error("replica of unknown node accepted")
	}
}

func TestKillAndAliveCount(t *testing.T) {
	l := newTestLayout()
	a := l.Deploy(geometry.Point{X: 1, Y: 1}, 0)
	l.Deploy(geometry.Point{X: 2, Y: 2}, 0)
	if l.AliveCount() != 2 {
		t.Fatalf("AliveCount = %d", l.AliveCount())
	}
	l.Kill(a.Handle)
	if l.AliveCount() != 1 {
		t.Errorf("AliveCount after kill = %d", l.AliveCount())
	}
	if l.Device(a.Handle).Alive {
		t.Error("device still alive")
	}
	l.Kill(Handle(999)) // unknown handle is a no-op
}

func TestKillFraction(t *testing.T) {
	l := newTestLayout()
	rng := rand.New(rand.NewSource(1))
	l.DeploySampled(Uniform{}, 100, rng, 0)
	killed := l.KillFraction(0.3, rng)
	if len(killed) != 30 {
		t.Errorf("killed %d, want 30", len(killed))
	}
	if l.AliveCount() != 70 {
		t.Errorf("alive = %d, want 70", l.AliveCount())
	}
	// Replicas are never killed by battery depletion.
	d := l.Devices()[0]
	if !d.Alive {
		d = l.Devices()[1]
	}
	if _, err := l.DeployReplica(d.Node, geometry.Point{X: 5, Y: 5}, 1); err != nil {
		t.Fatal(err)
	}
	before := l.AliveCount()
	l.KillFraction(1.0, rng)
	if got := l.AliveCount(); got != 1 {
		t.Errorf("after killing all originals alive = %d (before %d), want only the replica", got, before)
	}
}

func TestInRange(t *testing.T) {
	l := newTestLayout()
	a := l.Deploy(geometry.Point{X: 0, Y: 0}, 0)
	b := l.Deploy(geometry.Point{X: 30, Y: 0}, 0)
	c := l.Deploy(geometry.Point{X: 80, Y: 0}, 0)
	inRange := func(h Handle, r float64) []*Device {
		var out []*Device
		l.ForEachInRange(h, r, func(d *Device) { out = append(out, d) })
		return out
	}
	got := inRange(a.Handle, 50)
	if len(got) != 1 || got[0].Handle != b.Handle {
		t.Errorf("in range = %v", got)
	}
	l.Kill(b.Handle)
	if got := inRange(a.Handle, 50); len(got) != 0 {
		t.Errorf("dead device still in range: %v", got)
	}
	_ = c
	if got := inRange(Handle(999), 50); got != nil {
		t.Error("unknown handle returned devices")
	}
	if got := inRange(a.Handle, 80); len(got) != 1 || got[0].Handle != c.Handle {
		t.Errorf("in range at r=80 = %v, want just c", got)
	}
}

func TestTruthGraph(t *testing.T) {
	l := newTestLayout()
	a := l.Deploy(geometry.Point{X: 0, Y: 0}, 0)
	b := l.Deploy(geometry.Point{X: 30, Y: 0}, 0)
	c := l.Deploy(geometry.Point{X: 90, Y: 0}, 0)
	g := l.TruthGraph(50)
	if !g.HasMutual(a.Node, b.Node) {
		t.Error("in-range pair missing")
	}
	if g.HasRelation(a.Node, c.Node) {
		t.Error("out-of-range pair present")
	}
	if !g.HasMutual(b.Node, c.Node) { // 60 apart? no: 30->90 is 60 > 50
		// distance 60 > 50: must NOT be neighbors
	} else {
		t.Error("pair at 60 m related with R=50")
	}
	// Replicas never enter the truth graph.
	if _, err := l.DeployReplica(a.Node, geometry.Point{X: 91, Y: 0}, 1); err != nil {
		t.Fatal(err)
	}
	g2 := l.TruthGraph(50)
	if g2.HasRelation(a.Node, c.Node) || g2.HasRelation(c.Node, a.Node) {
		t.Error("replica created truth relations")
	}
	// Dead devices drop out.
	l.Kill(b.Handle)
	if g3 := l.TruthGraph(50); slices.Contains(g3.Nodes(), b.Node) {
		t.Error("dead node in truth graph")
	}
}

func TestClosestToCenter(t *testing.T) {
	l := newTestLayout()
	l.Deploy(geometry.Point{X: 10, Y: 10}, 0)
	center := l.Deploy(geometry.Point{X: 49, Y: 51}, 0)
	l.Deploy(geometry.Point{X: 90, Y: 90}, 0)
	if got := l.ClosestToCenter(); got.Handle != center.Handle {
		t.Errorf("ClosestToCenter = %+v", got)
	}
	// Replicas at dead center do not count.
	if _, err := l.DeployReplica(center.Node, geometry.Point{X: 50, Y: 50}, 1); err != nil {
		t.Fatal(err)
	}
	if got := l.ClosestToCenter(); got.Replica {
		t.Error("replica chosen as center node")
	}
	if NewLayout(geometry.NewField(10, 10)).ClosestToCenter() != nil {
		t.Error("empty layout returned a device")
	}
}

// TestNodeIDsSorted checks that Deploy hands out logical IDs 1, 2, 3, …
// in deployment order, the numbering Primary indexes by.
func TestNodeIDsSorted(t *testing.T) {
	l := newTestLayout()
	for i := 0; i < 5; i++ {
		d := l.Deploy(geometry.Point{X: float64(i), Y: 0}, 0)
		if want := nodeid.ID(i + 1); d.Node != want {
			t.Fatalf("deployment %d got ID %v, want %v", i, d.Node, want)
		}
		if p := l.Primary(d.Node); p != d {
			t.Fatalf("Primary(%v) = %v, want the deployed device", d.Node, p)
		}
	}
}

func TestUniformSamplerInField(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	field := geometry.NewField(100, 50)
	pts := Uniform{}.Sample(field, 500, rng)
	if len(pts) != 500 {
		t.Fatalf("n = %d", len(pts))
	}
	for _, p := range pts {
		if field.Clamp(p) != p {
			t.Fatalf("point %v outside field", p)
		}
	}
	// Rough uniformity: mean near center.
	var mx, my float64
	for _, p := range pts {
		mx += p.X
		my += p.Y
	}
	mx /= 500
	my /= 500
	if math.Abs(mx-50) > 5 || math.Abs(my-25) > 3 {
		t.Errorf("sample mean (%v, %v) far from center", mx, my)
	}
}

func TestGridJitterSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	field := geometry.NewField(100, 100)
	pts := GridJitter{Jitter: 2}.Sample(field, 49, rng)
	if len(pts) != 49 {
		t.Fatalf("n = %d", len(pts))
	}
	for _, p := range pts {
		if field.Clamp(p) != p {
			t.Fatalf("point %v outside field", p)
		}
	}
	// Nearest-neighbor distances should cluster near the grid pitch
	// (~14.3 m for 7x7 over 100 m), far from what uniform sampling yields.
	minD := math.Inf(1)
	for i := range pts {
		for j := range pts {
			if i != j {
				if d := pts[i].Dist(pts[j]); d < minD {
					minD = d
				}
			}
		}
	}
	if minD < 5 {
		t.Errorf("grid-jitter min spacing %v too small", minD)
	}
	if got := (GridJitter{}).Sample(field, 0, rng); got != nil {
		t.Error("n=0 returned points")
	}
}

func TestClusteredSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	field := geometry.NewField(1000, 1000)
	pts := Clustered{Clusters: 3, Sigma: 10}.Sample(field, 300, rng)
	if len(pts) != 300 {
		t.Fatalf("n = %d", len(pts))
	}
	for _, p := range pts {
		if field.Clamp(p) != p {
			t.Fatalf("point %v outside field", p)
		}
	}
	// Clustered points have far smaller average pairwise distance within
	// the modal cluster than the field diagonal.
	var within int
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			if pts[i].Dist(pts[j]) < 100 {
				within++
			}
		}
	}
	if within == 0 {
		t.Error("no tight pairs found; clustering ineffective")
	}
	// Degenerate cluster count is clamped.
	degenerate := Clustered{Clusters: 0, Sigma: 1}
	if got := degenerate.Sample(field, 10, rng); len(got) != 10 {
		t.Errorf("clamped sampler returned %d points", len(got))
	}
}

func TestDeploySampledRounds(t *testing.T) {
	l := newTestLayout()
	rng := rand.New(rand.NewSource(6))
	first := l.DeploySampled(Uniform{}, 10, rng, 0)
	second := l.DeploySampled(Uniform{}, 5, rng, 1)
	if len(first) != 10 || len(second) != 5 {
		t.Fatalf("deployed %d + %d", len(first), len(second))
	}
	for _, d := range second {
		if d.Round != 1 {
			t.Errorf("round = %d, want 1", d.Round)
		}
	}
	if l.Count() != 15 {
		t.Errorf("Count = %d", l.Count())
	}
}

func TestSamplerNames(t *testing.T) {
	for _, s := range []Sampler{Uniform{}, GridJitter{}, Clustered{}} {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}

func BenchmarkTruthGraph200(b *testing.B) {
	l := newTestLayout()
	rng := rand.New(rand.NewSource(7))
	l.DeploySampled(Uniform{}, 200, rng, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.TruthGraph(50)
	}
}
