package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"snd/internal/store"
)

// Cancelling mid-sweep must return promptly with the samples finished so
// far, tagged Cancelled, and leave no trial executing.
func TestMapCtxCancelReturnsPartial(t *testing.T) {
	e := New(Options{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var started atomic.Int64
	out, err := MapCtx(ctx, e, Spec{Experiment: "cancel", Points: 2, Trials: 50},
		func(p, trial int) (int, error) {
			if started.Add(1) == 10 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return trial, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out == nil || !out.Cancelled {
		t.Fatalf("outcome = %+v, want partial Cancelled outcome", out)
	}
	total := len(out.Points[0]) + len(out.Points[1])
	if total == 0 {
		t.Error("no samples survived although trials completed before the cancel")
	}
	if total >= 100 {
		t.Errorf("all %d cells ran despite cancellation", total)
	}
	// MapCtx waits for its workers before returning, so nothing may still
	// be executing — this is the no-leaked-workers guarantee.
	if n := e.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after MapCtx returned, want 0", n)
	}
}

// A context that is already cancelled must prevent any trial from running.
func TestMapCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var ran atomic.Int64
	// Workers: 1 exercises the serial path, which checks the context
	// before every cell.
	e := New(Options{Workers: 1})
	out, err := MapCtx(ctx, e, Spec{Experiment: "precancel", Points: 3, Trials: 5},
		func(p, trial int) (int, error) {
			ran.Add(1)
			return trial, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !out.Cancelled {
		t.Error("outcome not marked Cancelled")
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d trials ran under a pre-cancelled context", n)
	}
}

// A deadline expiring mid-sweep surfaces as context.DeadlineExceeded with
// a partial outcome, exactly like an explicit cancel.
func TestMapCtxDeadlineExpires(t *testing.T) {
	e := New(Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()

	out, err := MapCtx(ctx, e, Spec{Experiment: "deadline", Points: 1, Trials: 200},
		func(p, trial int) (int, error) {
			time.Sleep(2 * time.Millisecond)
			return trial, nil
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if out == nil || !out.Cancelled {
		t.Fatalf("outcome = %+v, want partial Cancelled outcome", out)
	}
	if len(out.Points[0]) >= 200 {
		t.Error("sweep ran to completion despite the deadline")
	}
}

// A trial error must still beat cancellation bookkeeping: the sweep
// aborts with the error and a nil outcome, as documented.
func TestMapCtxErrorBeatsCancel(t *testing.T) {
	e := New(Options{Workers: 1})
	boom := errors.New("boom")
	out, err := MapCtx(context.Background(), e, Spec{Experiment: "err", Points: 1, Trials: 3},
		func(p, trial int) (int, error) {
			return 0, boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if out != nil {
		t.Fatalf("outcome = %+v, want nil on trial error", out)
	}
}

// Dropped must break Failed down by point so callers can name the
// degraded cells.
func TestOutcomeDroppedPerPoint(t *testing.T) {
	e := New(Options{Workers: 1, Retries: -1})
	out, err := Map(e, Spec{Experiment: "dropped", Points: 3, Trials: 4},
		func(p, trial int) (int, error) {
			if p == 1 {
				panic("always")
			}
			return trial, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 4 {
		t.Errorf("Failed = %d, want 4", out.Failed)
	}
	want := []int{0, 4, 0}
	for p, n := range want {
		if out.Dropped[p] != n {
			t.Errorf("Dropped[%d] = %d, want %d", p, out.Dropped[p], n)
		}
	}
	if out.Cancelled {
		t.Error("panic-drops must not mark the sweep Cancelled")
	}
}

// writeTemp creates a .put-* file in dir with the given age.
func writeTemp(t *testing.T, dir, name string, age time.Duration) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	mt := time.Now().Add(-age)
	if err := os.Chtimes(p, mt, mt); err != nil {
		t.Fatal(err)
	}
	return p
}

var (
	diskSpec = Spec{Experiment: "unit-disk", Params: struct{ Seed int64 }{3}, Points: 2, Trials: 3}
	diskFn   = func(p, tr int) (float64, error) { return trialValue(3, p, tr), nil }
)

// A file:// cache directory shared across engine runs: reopening it
// sweeps stale .put-* crash debris but keeps a fresh temp (another
// process's Put in flight) and every cached sample.
func TestDiskCacheSweepStaleTemps(t *testing.T) {
	dir := t.TempDir()
	first, err := store.Open("file://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Map(New(Options{Workers: 2, Cache: first}), diskSpec, diskFn); err != nil {
		t.Fatal(err)
	}
	stale := writeTemp(t, dir, ".put-stale", 2*time.Hour)
	fresh := writeTemp(t, dir, ".put-fresh", 0)

	reopened, err := store.Open("file://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived reopening the cache")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file was removed but should have been kept")
	}
	out, err := Map(New(Options{Workers: 2, Cache: reopened}), diskSpec, diskFn)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached != 6 {
		t.Errorf("reopened cache served %d cells, want all 6", out.Cached)
	}
}

// An engine over a long-lived file:// cache directory starts on a swept
// directory, and its own Puts leave no temp files behind.
func TestNewSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := writeTemp(t, dir, ".put-orphan", 2*time.Hour)

	cache, err := store.Open("file://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2, Cache: cache})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("engine started on an unswept cache directory")
	}
	if _, err := Map(e, diskSpec, diskFn); err != nil {
		t.Fatal(err)
	}
	temps, err := filepath.Glob(filepath.Join(dir, ".put-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != 0 {
		t.Errorf("Puts left temp files behind: %v", temps)
	}
}
