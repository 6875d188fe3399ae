package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"snd/internal/store"
)

// mapSweep runs MapCtx with no deadline, as most tests need.
func mapSweep[T any](e *Engine, spec Spec, fn TrialFunc[T]) (*Outcome[T], error) {
	return MapCtx(context.Background(), e, spec, fn)
}

// trialValue is the reference pure trial function: a short deterministic
// RNG walk from the cell-derived seed.
func trialValue(seed int64, point, trial int) float64 {
	rng := rand.New(rand.NewSource(TrialSeed(seed, point, trial)))
	v := 0.0
	for i := 0; i < 50; i++ {
		v += rng.Float64()
	}
	return v
}

func TestMapParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	spec := Spec{Experiment: "unit", Params: map[string]int{"n": 7}, Points: 5, Trials: 9}
	fn := func(p, tr int) (float64, error) { return trialValue(42, p, tr), nil }

	serial, err := mapSweep(New(Options{Workers: 1}), spec, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 32} {
		par, err := mapSweep(New(Options{Workers: workers}), spec, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Points, par.Points) {
			t.Fatalf("workers=%d produced different samples", workers)
		}
	}
	if len(serial.Points) != 5 || len(serial.Points[0]) != 9 {
		t.Fatalf("grid shape %dx%d", len(serial.Points), len(serial.Points[0]))
	}
}

func TestMapCacheHitsSkipExecution(t *testing.T) {
	t.Parallel()
	cache := store.NewMemStore()
	e := New(Options{Workers: 4, Cache: cache})
	spec := Spec{Experiment: "unit-cache", Params: struct{ Seed int64 }{5}, Points: 3, Trials: 4}
	var calls atomic.Int64
	fn := func(p, tr int) (float64, error) {
		calls.Add(1)
		return trialValue(5, p, tr), nil
	}

	first, err := mapSweep(e, spec, fn)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 12 {
		t.Fatalf("first run executed %d trials, want 12", got)
	}
	if first.Cached != 0 {
		t.Fatalf("first run reported %d cached cells", first.Cached)
	}

	second, err := mapSweep(e, spec, fn)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 12 {
		t.Fatalf("second run re-executed trials: %d total calls", got)
	}
	if second.Cached != 12 {
		t.Fatalf("second run cached = %d, want 12", second.Cached)
	}
	if !reflect.DeepEqual(first.Points, second.Points) {
		t.Fatal("cached samples differ from computed ones")
	}

	// A different parameter set must miss.
	other := Spec{Experiment: "unit-cache", Params: struct{ Seed int64 }{6}, Points: 3, Trials: 4}
	if _, err := mapSweep(e, other, fn); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 24 {
		t.Fatalf("changed params hit the cache: %d calls", got)
	}
	if s := e.Stats(); s.TrialsCached != 12 || s.TrialsDone != 24 {
		t.Fatalf("engine stats %+v", s)
	}
}

func TestMapPanicRetriesThenDrops(t *testing.T) {
	t.Parallel()
	e := New(Options{Workers: 3})
	var attempts atomic.Int64
	fn := func(p, tr int) (int, error) {
		if p == 1 && tr == 2 {
			attempts.Add(1)
			panic("boom")
		}
		return p*10 + tr, nil
	}
	out, err := mapSweep(e, Spec{Points: 2, Trials: 4}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 1+DefaultRetries {
		t.Fatalf("panicking cell attempted %d times, want %d (1 + DefaultRetries)", got, 1+DefaultRetries)
	}
	if out.Failed != 1 {
		t.Fatalf("failed = %d, want 1", out.Failed)
	}
	if len(out.Points[0]) != 4 || len(out.Points[1]) != 3 {
		t.Fatalf("sample counts %d/%d, want 4/3", len(out.Points[0]), len(out.Points[1]))
	}
	// Order of surviving samples is preserved.
	if !reflect.DeepEqual(out.Points[1], []int{10, 11, 13}) {
		t.Fatalf("point 1 samples = %v", out.Points[1])
	}
	if s := e.Stats(); s.TrialsFailed != 1 || s.TrialsRetried != DefaultRetries {
		t.Fatalf("engine stats %+v", s)
	}
}

func TestMapRecoversFromPanicOnRetry(t *testing.T) {
	t.Parallel()
	e := New(Options{Workers: 1})
	var once atomic.Bool
	fn := func(p, tr int) (int, error) {
		if p == 0 && tr == 1 && once.CompareAndSwap(false, true) {
			panic("transient")
		}
		return tr, nil
	}
	out, err := mapSweep(e, Spec{Points: 1, Trials: 3}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 || !reflect.DeepEqual(out.Points[0], []int{0, 1, 2}) {
		t.Fatalf("retry did not recover: failed=%d samples=%v", out.Failed, out.Points[0])
	}
}

func TestMapErrorAborts(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("trial exploded")
	for _, workers := range []int{1, 6} {
		var calls atomic.Int64
		fn := func(p, tr int) (int, error) {
			calls.Add(1)
			if p == 0 && tr == 0 {
				return 0, sentinel
			}
			time.Sleep(time.Millisecond)
			return 0, nil
		}
		_, err := mapSweep(New(Options{Workers: workers}), Spec{Points: 4, Trials: 50}, fn)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if got := calls.Load(); got >= 200 {
			t.Errorf("workers=%d: abort did not short-circuit (%d calls)", workers, got)
		}
	}
}

func TestTrialSeedDisjointStreams(t *testing.T) {
	t.Parallel()
	seen := map[int64]string{}
	for p := 0; p < 40; p++ {
		for tr := 0; tr < 40; tr++ {
			s := TrialSeed(99, p, tr)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between (%d,%d) and %s", p, tr, prev)
			}
			seen[s] = fmt.Sprintf("(%d,%d)", p, tr)
		}
	}
	if TrialSeed(1, 0, 0) == TrialSeed(2, 0, 0) {
		t.Error("base seed ignored")
	}
}

func TestMapNilEngineUsesDefault(t *testing.T) {
	t.Parallel()
	out, err := MapCtx[int](context.Background(), nil, Spec{Points: 1, Trials: 2}, func(p, tr int) (int, error) { return tr, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Points[0], []int{0, 1}) {
		t.Fatalf("samples = %v", out.Points[0])
	}
}

// A grid whose cell count overflows int or exceeds MaxCells is refused
// with ErrGridTooLarge before any slot is allocated or trial run, whether
// the whole grid is mapped or a lease names one of its cells.
func TestOversizedGridRefused(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name           string
		points, trials int
	}{
		{"overflow", 4, 1 << 62},
		{"over cap", 1 << 10, MaxCells>>10 + 1},
	} {
		eng := New(Options{Workers: 2})
		ran := false
		fn := func(p, tr int) (int, error) { ran = true; return 0, nil }
		spec := Spec{Experiment: "huge", Params: tc.name, Points: tc.points, Trials: tc.trials}
		if _, err := mapSweep(eng, spec, fn); !errors.Is(err, ErrGridTooLarge) {
			t.Errorf("%s: Map err = %v, want ErrGridTooLarge", tc.name, err)
		}
		id, _, _ := SweepID(spec)
		if _, err := RunCells(context.Background(), eng, spec, id, []Cell{{0, 0}}, fn); !errors.Is(err, ErrGridTooLarge) {
			t.Errorf("%s: RunCells err = %v, want ErrGridTooLarge", tc.name, err)
		}
		if ran || eng.Stats().TrialsStarted != 0 {
			t.Errorf("%s: a trial ran on a refused grid", tc.name)
		}
	}
	// An empty grid allocates per point too, so Points alone is bounded.
	_, err := mapSweep(New(Options{}), Spec{Points: MaxCells + 1}, func(p, tr int) (int, error) { return 0, nil })
	if !errors.Is(err, ErrGridTooLarge) {
		t.Errorf("%d points x 0 trials: err = %v, want ErrGridTooLarge", MaxCells+1, err)
	}
}
