package runner

import (
	"context"
	"strings"
	"testing"

	"snd/internal/obs"
	"snd/internal/store"
)

// Stats and the registry exposition must agree: both are views of the same
// series, so every Stats field must equal the summed registry counters.
func TestStatsMatchesRegistry(t *testing.T) {
	e := New(Options{Workers: 4, Cache: store.NewMemStore()})
	spec := Spec{Experiment: "statstest", Params: 1, Points: 3, Trials: 4}
	fn := func(p, tr int) (int, error) { return p * tr, nil }
	if _, err := mapSweep(e, spec, fn); err != nil {
		t.Fatal(err)
	}
	if _, err := mapSweep(e, spec, fn); err != nil { // second run: all cached
		t.Fatal(err)
	}

	s := e.Stats()
	m := e.Metrics()
	if s.Sweeps != m.Sweeps.Sum() || s.TrialsStarted != m.Started.Sum() ||
		s.TrialsDone != m.Done.Sum() || s.TrialsCached != m.CacheHits.Sum() ||
		s.TrialsFailed != m.Failed.Sum() || s.TrialsRetried != m.Retried.Sum() {
		t.Errorf("Stats %+v diverges from registry (sweeps=%d started=%d done=%d cached=%d)",
			s, m.Sweeps.Sum(), m.Started.Sum(), m.Done.Sum(), m.CacheHits.Sum())
	}
	if s.TrialsCached != 12 || s.TrialsStarted != 12 {
		t.Errorf("cached=%d started=%d, want 12/12", s.TrialsCached, s.TrialsStarted)
	}
	if got := m.CacheMisses.Sum(); got != 12 {
		t.Errorf("cache misses = %d, want 12 (first run)", got)
	}

	var b strings.Builder
	if err := e.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`snd_trials_done_total{experiment="statstest"} 12`,
		`snd_cache_hits_total{experiment="statstest"} 12`,
		`snd_cache_misses_total{experiment="statstest"} 12`,
		`snd_sweep_trials_done{experiment="statstest"} 24`,
		`snd_sweep_trials_total{experiment="statstest"} 24`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	if errs := obs.Lint(strings.NewReader(text)); len(errs) != 0 {
		t.Errorf("engine exposition fails lint: %v", errs)
	}
}

// Trial latency is observed once per executed trial, and parallel sweeps
// record queue waits.
func TestLatencyHistogramCounts(t *testing.T) {
	e := New(Options{Workers: 4})
	spec := Spec{Experiment: "latency", Points: 2, Trials: 10}
	if _, err := mapSweep(e, spec, func(p, tr int) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	h := e.Metrics().TrialDuration.With("latency")
	if h.Count() != 20 {
		t.Errorf("duration observations = %d, want 20", h.Count())
	}
	if q := e.Metrics().QueueWait.With("latency"); q.Count() != 20 {
		t.Errorf("queue-wait observations = %d, want 20", q.Count())
	}
	// Serial sweeps have no queue.
	se := New(Options{Workers: 1})
	if _, err := mapSweep(se, spec, func(p, tr int) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if q := se.Metrics().QueueWait.With("latency"); q.Count() != 0 {
		t.Errorf("serial queue-wait observations = %d, want 0", q.Count())
	}
}

// A Progress attached to the context tracks done/total/dropped across
// every sweep run under it, including cached cells and dropped trials.
func TestProgressTracking(t *testing.T) {
	e := New(Options{Workers: 2, Cache: store.NewMemStore()})
	var pr Progress
	ctx := WithProgress(context.Background(), &pr)

	spec := Spec{Experiment: "progress", Params: "a", Points: 2, Trials: 5}
	if _, err := MapCtx(ctx, e, spec, func(p, tr int) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if s := pr.Snapshot(); s.Done != 10 || s.Total != 10 || s.Dropped != 0 {
		t.Errorf("after first sweep: %+v, want done=10 total=10", s)
	}

	// Second sweep under the same tracker: cached cells still count as
	// done, and totals accumulate.
	if _, err := MapCtx(ctx, e, spec, func(p, tr int) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if s := pr.Snapshot(); s.Done != 20 || s.Total != 20 {
		t.Errorf("after cached sweep: %+v, want done=20 total=20", s)
	}

	// Panicking trials count as dropped, not done.
	var pr2 Progress
	ctx2 := WithProgress(context.Background(), &pr2)
	out, err := MapCtx(ctx2, e, Spec{Experiment: "progress-drop", Points: 1, Trials: 4},
		func(p, tr int) (int, error) {
			if tr == 2 {
				panic("boom")
			}
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", out.Failed)
	}
	if s := pr2.Snapshot(); s.Done != 3 || s.Total != 4 || s.Dropped != 1 {
		t.Errorf("drop sweep progress: %+v, want done=3 total=4 dropped=1", s)
	}
}

// Engines built without an explicit registry still expose one.
func TestPrivateRegistryByDefault(t *testing.T) {
	a, b := New(Options{}), New(Options{})
	if a.Registry() == nil || a.Registry() == b.Registry() {
		t.Error("engines should get private registries by default")
	}
	// Sharing a registry across engines must not panic (get-or-register).
	reg := obs.NewRegistry()
	New(Options{Registry: reg})
	New(Options{Registry: reg})
}
