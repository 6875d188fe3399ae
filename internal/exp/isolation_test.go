package exp

import (
	"context"
	"strings"
	"testing"
)

func TestIsolationGrowsWithThreshold(t *testing.T) {
	t.Parallel()
	res, err := planIsolation(IsolationParams{
		Thresholds: []int{0, 120, 155},
		Trials:     3,
		Seed:       51,
	}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// At t = 0 the functional topology is essentially the full network:
	// (almost) nobody is isolated.
	if res.IsolatedFraction.Y[0] > 0.05 {
		t.Errorf("isolated fraction at t=0 is %v", res.IsolatedFraction.Y[0])
	}
	// At t = 155 hardly any pair shares 156 common neighbors: the graph
	// shatters.
	if res.IsolatedFraction.Y[2] < 0.5 {
		t.Errorf("isolated fraction at t=155 is %v, want most nodes isolated", res.IsolatedFraction.Y[2])
	}
	// Monotone (within noise) across the sweep.
	if res.IsolatedFraction.Y[1] > res.IsolatedFraction.Y[2]+0.1 {
		t.Errorf("isolation not growing: %v", res.IsolatedFraction.Y)
	}
	// Partition count grows as the topology fragments.
	if res.Partitions.Y[2] <= res.Partitions.Y[0] {
		t.Errorf("partitions did not grow: %v", res.Partitions.Y)
	}
	if out := res.Table().Render(); !strings.Contains(out, "connectivity") {
		t.Error("render missing title")
	}
}
