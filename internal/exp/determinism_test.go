package exp

import (
	"context"
	"reflect"
	"testing"

	"snd/internal/runner"
)

// The engine's core guarantee: for a fixed seed, results are bit-identical
// no matter how many workers shard the trials. Each subtest runs one
// experiment serially and on an 8-worker pool and requires DeepEqual
// results. One representative per runner file keeps the runtime sane.

func requireIdentical[T any](t *testing.T, run func(eng *runner.Engine) (T, error)) {
	t.Helper()
	serial, err := run(runner.New(runner.Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := run(runner.New(runner.Options{Workers: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel result diverges from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	// Small deployments throughout: determinism does not depend on scale,
	// and this whole test runs twice per experiment (and again under
	// -race in CI).
	t.Run("fig3", func(t *testing.T) {
		t.Parallel()
		requireIdentical(t, func(eng *runner.Engine) (*Fig3Result, error) {
			return planFig3(Fig3Params{Nodes: 100, Trials: 3, Seed: 11}).run(context.Background(), eng)
		})
	})
	t.Run("fig4", func(t *testing.T) {
		t.Parallel()
		requireIdentical(t, func(eng *runner.Engine) (*Fig4Result, error) {
			return planFig4(Fig4Params{Trials: 2, Seed: 12, Densities: []float64{10, 20}}).run(context.Background(), eng)
		})
	})
	t.Run("safety", func(t *testing.T) {
		t.Parallel()
		requireIdentical(t, func(eng *runner.Engine) (*SafetyResult, error) {
			return planSafety(SafetyParams{Nodes: 120, Trials: 2, CompromiseCounts: []int{1, 2}, Seed: 13}).run(context.Background(), eng)
		})
	})
	t.Run("compare", func(t *testing.T) {
		t.Parallel()
		requireIdentical(t, func(eng *runner.Engine) (*CompareResult, error) {
			return planCompare(CompareParams{Nodes: 100, Trials: 2, Seed: 14}).run(context.Background(), eng)
		})
	})
	t.Run("isolation", func(t *testing.T) {
		t.Parallel()
		requireIdentical(t, func(eng *runner.Engine) (*IsolationResult, error) {
			return planIsolation(IsolationParams{Nodes: 100, Trials: 2, Thresholds: []int{0, 80}, Seed: 15}).run(context.Background(), eng)
		})
	})
	t.Run("routing", func(t *testing.T) {
		t.Parallel()
		requireIdentical(t, func(eng *runner.Engine) (*RoutingResult, error) {
			return planRouting(RoutingParams{Nodes: 150, Trials: 2, Pairs: 20, Seed: 16}).run(context.Background(), eng)
		})
	})
	t.Run("aggregation", func(t *testing.T) {
		t.Parallel()
		requireIdentical(t, func(eng *runner.Engine) (*AggregationResult, error) {
			return planAggregation(AggregationParams{Nodes: 150, Trials: 2, Seed: 17}).run(context.Background(), eng)
		})
	})
	t.Run("noise", func(t *testing.T) {
		t.Parallel()
		requireIdentical(t, func(eng *runner.Engine) (*NoiseResult, error) {
			return planVerifierNoise(NoiseParams{Nodes: 100, Trials: 2, Sigmas: []float64{0, 4}, Seed: 18}).run(context.Background(), eng)
		})
	})
}
