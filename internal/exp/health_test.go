package exp

import (
	"context"
	"errors"
	"testing"

	"snd/internal/runner"
)

func TestHealthOfAndString(t *testing.T) {
	clean := healthOf(&runner.Outcome[int]{Dropped: []int{0, 0}})
	if clean.Degraded() || clean.String() != "healthy" {
		t.Errorf("clean outcome reported %q (degraded=%v)", clean, clean.Degraded())
	}

	hurt := healthOf(&runner.Outcome[int]{Failed: 3, Dropped: []int{0, 2, 0, 0, 1}})
	if !hurt.Degraded() || hurt.Dropped != 3 {
		t.Fatalf("degraded outcome reported %+v", hurt)
	}
	if got, want := hurt.String(), "3 trials dropped (point 1: 2, point 4: 1)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}

	one := healthOf(&runner.Outcome[int]{Failed: 1, Dropped: []int{1}})
	if got, want := one.String(), "1 trial dropped (point 0: 1)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Cancelling the context passed to a runner propagates out as the
// context's error; no partial result struct is fabricated.
func TestRunnerCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := runner.New(runner.Options{Workers: 1})
	res, err := planFig3(Fig3Params{Trials: 5, Seed: 1}).run(ctx, eng)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("result = %+v, want nil on cancellation", res)
	}
}
