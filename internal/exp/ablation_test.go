package exp

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestVerifierNoiseDegradesGracefully(t *testing.T) {
	t.Parallel()
	res, err := planVerifierNoise(NoiseParams{Sigmas: []float64{0, 8}, Trials: 2, Seed: 31}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, noisy := res.Accuracy.Y[0], res.Accuracy.Y[1]
	if clean < 0.95 {
		t.Errorf("noiseless accuracy %v, want ≈ 1", clean)
	}
	if noisy > clean+1e-9 {
		t.Errorf("noise increased accuracy: %v -> %v", clean, noisy)
	}
	// Asymmetric verification shows up as rejected records.
	if res.Rejected.Y[0] != 0 {
		t.Errorf("rejections without noise: %v", res.Rejected.Y[0])
	}
	if res.Rejected.Y[1] == 0 {
		t.Error("no rejections at sigma=8; noise not reaching the protocol")
	}
	if out := res.Table().Render(); !strings.Contains(out, "RTT") {
		t.Error("render missing title")
	}
}

func TestSchemeAblationCoverageGatesAccuracy(t *testing.T) {
	t.Parallel()
	res, err := planSchemeAblation(SchemeParams{RingSizes: []int{20, 200}, Seed: 32}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bigger rings cover more pairs and lose fewer exchanges.
	if res.Coverage.Y[1] <= res.Coverage.Y[0] {
		t.Errorf("coverage did not grow with ring size: %v", res.Coverage.Y)
	}
	if res.Failures.Y[1] >= res.Failures.Y[0] {
		t.Errorf("channel failures did not drop with ring size: %v", res.Failures.Y)
	}
	if res.Accuracy.Y[1] < res.Accuracy.Y[0]-1e-9 {
		t.Errorf("accuracy dropped with better coverage: %v", res.Accuracy.Y)
	}
	if out := res.Table().Render(); !strings.Contains(out, "ring size") {
		t.Error("render missing title")
	}
}

func TestEnginesAgree(t *testing.T) {
	t.Parallel()
	res, err := planEngines(EnginesParams{Seed: 33}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same positions, same threshold, lossless medium: the functional
	// topology — and hence accuracy — must match exactly.
	if math.Abs(res.SyncAccuracy-res.AsyncAccuracy) > 1e-9 {
		t.Errorf("engines disagree: sync %v vs async %v", res.SyncAccuracy, res.AsyncAccuracy)
	}
	if res.SyncMessages == 0 || res.AsyncMessages == 0 {
		t.Error("an engine sent no frames")
	}
	if out := res.Render(); !strings.Contains(out, "goroutine-per-node") {
		t.Error("render missing title")
	}
}
