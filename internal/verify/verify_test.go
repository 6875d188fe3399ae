package verify

import (
	"math/rand"
	"slices"
	"testing"

	"snd/internal/deploy"
	"snd/internal/geometry"
)

func pairLayout(t *testing.T, dist float64) (*deploy.Layout, *deploy.Device, *deploy.Device) {
	t.Helper()
	l := deploy.NewLayout(geometry.NewField(500, 100))
	a := l.Deploy(geometry.Point{X: 0, Y: 50}, 0)
	b := l.Deploy(geometry.Point{X: dist, Y: 50}, 0)
	return l, a, b
}

func TestOracle(t *testing.T) {
	_, a, b := pairLayout(t, 40)
	if !(Oracle{}).Verify(a, b, 50) {
		t.Error("in-range pair rejected")
	}
	_, c, d := pairLayout(t, 60)
	if (Oracle{}).Verify(c, d, 50) {
		t.Error("out-of-range pair accepted")
	}
}

func TestRTTNoiseless(t *testing.T) {
	v := &RTT{}
	_, a, b := pairLayout(t, 49)
	if !v.Verify(a, b, 50) {
		t.Error("noiseless RTT rejected in-range pair")
	}
	_, c, d := pairLayout(t, 51)
	if v.Verify(c, d, 50) {
		t.Error("noiseless RTT accepted out-of-range pair")
	}
}

func TestRTTNoiseCausesBoundaryErrors(t *testing.T) {
	// With σ = 5 m, a pair at 48 m is sometimes rejected and a pair at
	// 52 m sometimes accepted, but pairs far from the boundary are stable.
	v := &RTT{NoiseStd: 5, Rng: rand.New(rand.NewSource(8))}
	_, nearIn, nearInPeer := pairLayout(t, 48)
	_, farIn, farInPeer := pairLayout(t, 5)
	_, farOut, farOutPeer := pairLayout(t, 200)

	rejectsNearBoundary := 0
	for i := 0; i < 500; i++ {
		if !v.Verify(nearIn, nearInPeer, 50) {
			rejectsNearBoundary++
		}
		if !v.Verify(farIn, farInPeer, 50) {
			t.Fatal("pair at 5 m rejected despite noise")
		}
		if v.Verify(farOut, farOutPeer, 50) {
			t.Fatal("pair at 200 m accepted despite noise")
		}
	}
	if rejectsNearBoundary == 0 {
		t.Error("no boundary errors with σ=5; noise not applied")
	}
}

func TestRSSNoiseless(t *testing.T) {
	v := &RSS{PathLossExp: 3}
	_, a, b := pairLayout(t, 30)
	if !v.Verify(a, b, 50) {
		t.Error("noiseless RSS rejected in-range pair")
	}
	_, c, d := pairLayout(t, 80)
	if v.Verify(c, d, 50) {
		t.Error("noiseless RSS accepted out-of-range pair")
	}
	// Sub-reference distances always accepted.
	_, e, f := pairLayout(t, 0.5)
	if !v.Verify(e, f, 50) {
		t.Error("sub-reference distance rejected")
	}
	// Zero exponent defaults to free space instead of dividing by zero.
	vz := &RSS{}
	if !vz.Verify(a, b, 50) {
		t.Error("default exponent broken")
	}
}

func TestRSSShadowingErrors(t *testing.T) {
	v := &RSS{PathLossExp: 3, ShadowingDB: 6, Rng: rand.New(rand.NewSource(3))}
	_, a, b := pairLayout(t, 45)
	rejects := 0
	for i := 0; i < 500; i++ {
		if !v.Verify(a, b, 50) {
			rejects++
		}
	}
	if rejects == 0 {
		t.Error("heavy shadowing produced no boundary errors")
	}
}

func TestLocationClaimPassesReplicas(t *testing.T) {
	// The core premise: a replica planted next to the verifier passes
	// location-claim verification because its claimed position is real.
	l, a, b := pairLayout(t, 300) // b far away from a
	rep, err := l.DeployReplica(b.Node, geometry.Point{X: 10, Y: 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := LocationClaim{}
	if v.Verify(b, a, 50) {
		t.Error("distant original accepted")
	}
	if !v.Verify(rep, a, 50) {
		t.Error("physically present replica rejected — premise violated")
	}
	// RTT and Oracle behave the same way: the replica is really there.
	if !(Oracle{}).Verify(rep, a, 50) {
		t.Error("oracle rejected physically present replica")
	}
	if !(&RTT{}).Verify(rep, a, 50) {
		t.Error("rtt rejected physically present replica")
	}
}

func TestTentativeGraphBenign(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(200, 100))
	a := l.Deploy(geometry.Point{X: 0, Y: 50}, 0)
	b := l.Deploy(geometry.Point{X: 30, Y: 50}, 0)
	c := l.Deploy(geometry.Point{X: 150, Y: 50}, 0)
	g := TentativeGraph(l, Oracle{}, 50)
	if !g.HasMutual(a.Node, b.Node) {
		t.Error("benign neighbors missing")
	}
	if g.HasRelation(a.Node, c.Node) || g.HasRelation(c.Node, a.Node) {
		t.Error("distant pair related")
	}
	// Matches the layout's ground truth exactly under the oracle.
	if !g.Equal(l.TruthGraph(50)) {
		t.Error("oracle tentative graph differs from truth graph")
	}
}

func TestTentativeGraphWithReplica(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(400, 100))
	a := l.Deploy(geometry.Point{X: 0, Y: 50}, 0)
	b := l.Deploy(geometry.Point{X: 30, Y: 50}, 0)
	victim := l.Deploy(geometry.Point{X: 350, Y: 50}, 0)
	if _, err := l.DeployReplica(victim.Node, geometry.Point{X: 10, Y: 50}, 1); err != nil {
		t.Fatal(err)
	}
	g := TentativeGraph(l, Oracle{}, 50)
	// The replica establishes tentative relations with a and b far from the
	// victim's original location.
	if !g.HasMutual(a.Node, victim.Node) || !g.HasMutual(b.Node, victim.Node) {
		t.Error("replica failed to create tentative relations")
	}
	// And the truth graph has none of them.
	if l.TruthGraph(50).HasRelation(a.Node, victim.Node) {
		t.Error("truth graph polluted by replica")
	}
}

func TestTentativeGraphSkipsDead(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(100, 100))
	a := l.Deploy(geometry.Point{X: 0, Y: 50}, 0)
	b := l.Deploy(geometry.Point{X: 30, Y: 50}, 0)
	l.Kill(b.Handle)
	g := TentativeGraph(l, Oracle{}, 50)
	if slices.Contains(g.Nodes(), b.Node) {
		t.Error("dead device in tentative graph")
	}
	if len(g.Out(a.Node)) != 0 {
		t.Error("relations to dead device")
	}
}

func TestErrorRatesOracleZero(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(100, 100))
	rng := rand.New(rand.NewSource(12))
	l.DeploySampled(deploy.Uniform{}, 60, rng, 0)
	fr, fa := errorRates(l, Oracle{}, 50)
	if fr != 0 || fa != 0 {
		t.Errorf("oracle error rates = %v, %v", fr, fa)
	}
}

func TestErrorRatesRTTSmall(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(100, 100))
	rng := rand.New(rand.NewSource(13))
	l.DeploySampled(deploy.Uniform{}, 60, rng, 0)
	v := &RTT{NoiseStd: 2, Rng: rand.New(rand.NewSource(14))}
	fr, fa := errorRates(l, v, 50)
	if fr > 0.1 {
		t.Errorf("false reject rate %v too high for σ=2", fr)
	}
	if fa > 0.1 {
		t.Errorf("false accept rate %v too high for σ=2", fa)
	}
	if fr == 0 && fa == 0 {
		t.Log("no errors observed; acceptable but unusual for σ=2")
	}
}

func TestVerifierNames(t *testing.T) {
	for _, v := range []Verifier{Oracle{}, &RTT{}, &RSS{}, LocationClaim{}} {
		if v.Name() == "" {
			t.Errorf("%T has empty name", v)
		}
	}
}

func BenchmarkTentativeGraph200(b *testing.B) {
	l := deploy.NewLayout(geometry.NewField(100, 100))
	rng := rand.New(rand.NewSource(15))
	l.DeploySampled(deploy.Uniform{}, 200, rng, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TentativeGraph(l, Oracle{}, 50)
	}
}

// errorRates measures a mechanism's benign-pair false reject and false
// accept rates over the alive non-replica devices of a layout, against the
// ground truth distance ≤ r. It returns (falseReject, falseAccept).
func errorRates(l *deploy.Layout, v Verifier, r float64) (falseReject, falseAccept float64) {
	var devs []*deploy.Device
	for _, d := range l.Devices() {
		if d.Alive && !d.Replica {
			devs = append(devs, d)
		}
	}
	var neighbors, rejected, strangers, accepted int
	for _, a := range devs {
		for _, b := range devs {
			if a.Handle == b.Handle {
				continue
			}
			truth := a.Pos.InRange(b.Pos, r)
			got := v.Verify(b, a, r)
			if truth {
				neighbors++
				if !got {
					rejected++
				}
			} else {
				strangers++
				if got {
					accepted++
				}
			}
		}
	}
	if neighbors > 0 {
		falseReject = float64(rejected) / float64(neighbors)
	}
	if strangers > 0 {
		falseAccept = float64(accepted) / float64(strangers)
	}
	return falseReject, falseAccept
}
