package exp

import (
	"context"

	"snd/internal/runner"
)

// HealthReport is embedded by every result type. It carries the sweep's
// degradation report (serialized under the historical "Health" key) and
// implements the Result interface's Health accessor, so the scaffold can
// attach drop accounting to any result generically.
type HealthReport struct {
	Sweep SweepHealth `json:"Health"`
}

// Health reports trials dropped from the underlying sweep.
func (h *HealthReport) Health() SweepHealth { return h.Sweep }

// setHealth is the scaffold's hook for attaching the outcome's report.
func (h *HealthReport) setHealth(s SweepHealth) { h.Sweep = s }

// healthCarrier is satisfied by every result via the HealthReport embed.
type healthCarrier interface{ setHealth(SweepHealth) }

// Sweep is one experiment's plan: the (point, trial) grid it runs, the
// trial function computing one cell, and the reducer folding the dense
// outcome into the result. Every registered experiment is a function from
// its params to a Sweep, so the registry can run the whole grid or just
// the cells a remote coordinator leased. With it a runner is just its
// params struct, one trial function, and one reducer.
type Sweep[S any, R Result] struct {
	// Name namespaces the trial cache and the sweep ID. It is usually the
	// registered experiment name.
	Name string
	// Params must capture everything Trial closes over; it keys the cache.
	Params any
	// Points and Trials give the grid extent.
	Points, Trials int
	// Trial computes one cell as a pure function of its indices.
	Trial runner.TrialFunc[S]
	// Reduce folds the outcome, in deterministic cell order, into the
	// result.
	Reduce func(out *runner.Outcome[S]) (R, error)
}

func (s Sweep[S, R]) spec() runner.Spec {
	return runner.Spec{Experiment: s.Name, Params: s.Params, Points: s.Points, Trials: s.Trials}
}

// run executes the grid on eng (nil falls back to runner.Default()),
// reduces the outcome, and attaches the sweep's drop accounting to the
// result.
func (s Sweep[S, R]) run(ctx context.Context, eng *runner.Engine) (R, error) {
	var zero R
	out, err := runner.MapCtx(ctx, eng, s.spec(), s.Trial)
	if err != nil {
		return zero, err
	}
	res, err := s.Reduce(out)
	if err != nil {
		return zero, err
	}
	if hc, ok := any(res).(healthCarrier); ok {
		hc.setHealth(healthOf(out))
	}
	return res, nil
}
