package exp

import (
	"context"
	"math"
	"strings"
	"testing"
)

// The experiment runners are exercised with reduced trial counts; the
// assertions pin the qualitative shapes the paper reports, which is what
// the reproduction is accountable for.

func TestFig3ShapeMatchesPaper(t *testing.T) {
	t.Parallel()
	res, err := planFig3(Fig3Params{Trials: 8, Seed: 1}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Theory.Len() != res.Simulation.Len() || res.Theory.Len() == 0 {
		t.Fatalf("series lengths %d vs %d", res.Theory.Len(), res.Simulation.Len())
	}
	for i := range res.Theory.X {
		theory, simv := res.Theory.Y[i], res.Simulation.Y[i]
		if math.Abs(theory-simv) > 0.2 {
			t.Errorf("t=%v: theory %.3f vs sim %.3f diverge", res.Theory.X[i], theory, simv)
		}
		if simv < 0 || simv > 1 {
			t.Fatalf("simulated fraction %v out of range", simv)
		}
	}
	// Key qualitative claims: high accuracy at t=30, low at t=150.
	at := func(s []float64, xs []float64, x float64) float64 {
		for i := range xs {
			if xs[i] == x {
				return s[i]
			}
		}
		t.Fatalf("x=%v missing", x)
		return 0
	}
	if v := at(res.Simulation.Y, res.Simulation.X, 30); v < 0.8 {
		t.Errorf("sim accuracy at t=30 is %v, paper reports high", v)
	}
	if v := at(res.Simulation.Y, res.Simulation.X, 150); v > 0.25 {
		t.Errorf("sim accuracy at t=150 is %v, paper reports low", v)
	}
	// Monotone non-increasing within noise.
	prev := 1.1
	for _, v := range res.Simulation.Y {
		if v > prev+0.05 {
			t.Errorf("simulated curve increased: %v after %v", v, prev)
		}
		prev = v
	}
	if out := res.Table().Render(); !strings.Contains(out, "Figure 3") {
		t.Error("table render missing title")
	}
}

func TestFig4DensityIncreasesAccuracy(t *testing.T) {
	t.Parallel()
	res, err := planFig4(Fig4Params{Trials: 8, Seed: 2, Densities: []float64{10, 20, 30, 40, 50}}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 3 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	for _, c := range res.Curves {
		prev := -0.1
		for i, v := range c.Y {
			if v < prev-0.08 {
				t.Errorf("%s: accuracy dropped from %v to %v at density %v", c.Name, prev, v, c.X[i])
			}
			prev = v
		}
	}
	// At any density, larger t means lower (or equal) accuracy.
	for i := range res.Curves[0].Y {
		if res.Curves[0].Y[i]+0.05 < res.Curves[2].Y[i] {
			t.Errorf("t=10 below t=50 at density %v", res.Curves[0].X[i])
		}
	}
	if out := res.Table().Render(); !strings.Contains(out, "Figure 4") {
		t.Error("table render missing title")
	}
}

func TestSafetyNoViolationsUnderThreshold(t *testing.T) {
	t.Parallel()
	res, err := planSafety(SafetyParams{
		Trials:           3,
		CompromiseCounts: []int{1, 3},
		Seed:             3,
	}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range res.ViolationRate.Y {
		if rate != 0 {
			t.Errorf("violation rate %v at %v compromised (≤ t)", rate, res.ViolationRate.X[i])
		}
	}
	for i, w := range res.WorstEnclosing.Y {
		if w > res.Bound {
			t.Errorf("worst enclosing radius %v exceeds bound %v at count %v", w, res.Bound, res.WorstEnclosing.X[i])
		}
	}
}

func TestBreakdownTransitionAtThreshold(t *testing.T) {
	t.Parallel()
	const threshold = 4
	res, err := planBreakdown(BreakdownParams{
		Threshold:   threshold,
		CliqueSizes: []int{threshold + 1, threshold + 2},
		Trials:      4,
		Seed:        4,
	}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// k = t+1: protected. k = t+2: broken in most trials.
	if res.ViolationRate.Y[0] != 0 {
		t.Errorf("violations at k=t+1: %v", res.ViolationRate.Y[0])
	}
	if res.ViolationRate.Y[1] < 0.5 {
		t.Errorf("violation rate at k=t+2 is %v, want majority", res.ViolationRate.Y[1])
	}
}

func TestImpossibilityContrast(t *testing.T) {
	t.Parallel()
	res, err := planImpossibility(ImpossibilityParams{Trials: 6, Seed: 5}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TopologyOnlySuccess < 0.8 {
		t.Errorf("substitution attack success %v against topology-only rule, want ≈ 1", res.TopologyOnlySuccess)
	}
	if res.TopologyOnlyReach <= res.Bound {
		t.Errorf("fooled reach %v not beyond bound %v", res.TopologyOnlyReach, res.Bound)
	}
	if res.ProtocolSuccess != 0 {
		t.Errorf("paper protocol broken in %v of trials with 1 compromised node", res.ProtocolSuccess)
	}
	if out := res.Render(); !strings.Contains(out, "Theorems 1-2") {
		t.Error("render missing title")
	}
}

func TestCompareTable(t *testing.T) {
	t.Parallel()
	res, err := planCompare(CompareParams{Trials: 4, Seed: 6}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]CompareRow{}
	for _, r := range res.Rows {
		byName[r.Scheme] = r
	}
	snd := byName["snd protocol (this paper)"]
	if snd.Defense < 0.99 {
		t.Errorf("protocol prevention rate %v, want 1", snd.Defense)
	}
	if snd.NeedsLocation {
		t.Error("protocol marked as needing location")
	}
	rm := byName["randomized multicast"]
	lsm := byName["line-selected multicast"]
	if !rm.NeedsLocation || !lsm.NeedsLocation {
		t.Error("baselines not marked as needing location")
	}
	if rm.Defense == 0 && lsm.Defense == 0 {
		t.Error("baselines detected nothing; configuration broken")
	}
	if out := res.Render(); !strings.Contains(out, "Parno") {
		t.Error("render missing title")
	}
}

func TestCompareScaling(t *testing.T) {
	t.Parallel()
	// The paper's communication claim is about scaling: the protocol only
	// talks to neighbors (per-node cost set by density, independent of
	// network size), while the baselines multicast claims across the whole
	// network (per-node cost grows with n). Double the field area and node
	// count at constant density and compare growth.
	small, err := planCompare(CompareParams{Nodes: 100, FieldSide: 100, Trials: 3, Seed: 20}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	large, err := planCompare(CompareParams{Nodes: 400, FieldSide: 200, Trials: 3, Seed: 21}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	row := func(r *CompareResult, name string) CompareRow {
		for _, row := range r.Rows {
			if row.Scheme == name {
				return row
			}
		}
		t.Fatalf("row %q missing", name)
		return CompareRow{}
	}
	const snd = "snd protocol (this paper)"
	const rm = "randomized multicast"
	sndGrowth := row(large, snd).MsgsPerNode / row(small, snd).MsgsPerNode
	rmGrowth := row(large, rm).MsgsPerNode / row(small, rm).MsgsPerNode
	if sndGrowth > 1.5 {
		t.Errorf("protocol msgs/node grew %.2fx with network size at fixed density", sndGrowth)
	}
	if rmGrowth < sndGrowth*1.5 {
		t.Errorf("randomized multicast growth %.2fx not clearly above protocol's %.2fx", rmGrowth, sndGrowth)
	}
}

func TestHostileAccuracyUnmoved(t *testing.T) {
	t.Parallel()
	res, err := planHostile(HostileParams{Trials: 2, FloodCount: 150, Seed: 7}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AccuracyAfter < res.AccuracyBefore-1e-9 {
		t.Errorf("flood reduced accuracy: %v -> %v", res.AccuracyBefore, res.AccuracyAfter)
	}
	if res.ForgedRejected == 0 {
		t.Error("no forged messages rejected")
	}
	if out := res.Render(); !strings.Contains(out, "Hostile") {
		t.Error("render missing title")
	}
}

func TestOverheadSweepGrowsWithDensity(t *testing.T) {
	t.Parallel()
	res, err := planOverheadSweep(OverheadParams{Sizes: []int{100, 300}, Seed: 8}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Denser networks mean more neighbors, hence more records exchanged
	// per node.
	if res.Messages.Y[1] <= res.Messages.Y[0] {
		t.Errorf("msgs/node did not grow with density: %v", res.Messages.Y)
	}
	if res.Storage.Y[1] <= res.Storage.Y[0] {
		t.Errorf("storage/node did not grow with density: %v", res.Storage.Y)
	}
	if out := res.Table().Render(); !strings.Contains(out, "overhead") {
		t.Error("render missing title")
	}
}

func TestUpdateExperiment(t *testing.T) {
	t.Parallel()
	res, err := planUpdate(UpdateParams{UpdateBudgets: []int{0, 2}, Trials: 2, Waves: 2, Seed: 9}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 4: reach within (m+1)R at every budget.
	for i := range res.MaxReach.Y {
		if res.MaxReach.Y[i] > res.TheoremBound.Y[i] {
			t.Errorf("m=%v: reach %v exceeds bound %v", res.MaxReach.X[i], res.MaxReach.Y[i], res.TheoremBound.Y[i])
		}
	}
	// Updates should not hurt accuracy.
	if res.Accuracy.Y[1] < res.Accuracy.Y[0]-0.02 {
		t.Errorf("updates reduced accuracy: %v", res.Accuracy.Y)
	}
}
