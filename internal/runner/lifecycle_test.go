package runner

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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
	if n := e.Metrics().InFlight.Value(); n != 0 {
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
	e := New(Options{Workers: 1})
	out, err := mapSweep(e, Spec{Experiment: "dropped", Points: 3, Trials: 4},
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
	if _, err := mapSweep(New(Options{Workers: 2, Cache: first}), diskSpec, diskFn); err != nil {
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
	out, err := mapSweep(New(Options{Workers: 2, Cache: reopened}), diskSpec, diskFn)
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
	if _, err := mapSweep(e, diskSpec, diskFn); err != nil {
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

// tornSample is shaped like the experiments' samples: a struct, so its JSON
// encoding is an object and no strict prefix of it decodes.
type tornSample struct {
	Point, Trial int
	Value        float64
}

// FileStore.Put writes a temp file and renames it without an fsync, so a
// crash can leave a cell's entry torn: any prefix of the sample, the empty
// value included. The runner must treat every such entry as a miss,
// recompute the cell, and produce the uncached sweep's result.
func TestTornCacheEntryIsRecomputed(t *testing.T) {
	spec := Spec{Experiment: "torn", Params: struct{ Seed int64 }{5}, Points: 2, Trials: 2}
	var calls atomic.Int64
	fn := func(p, tr int) (tornSample, error) {
		calls.Add(1)
		return tornSample{Point: p, Trial: tr, Value: trialValue(5, p, tr)}, nil
	}
	want, err := mapSweep(New(Options{Workers: 1}), spec, fn)
	if err != nil {
		t.Fatal(err)
	}

	cache, err := store.Open("file://" + t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mapSweep(New(Options{Workers: 1, Cache: cache}), spec, fn); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := cellKey(cacheKeyBase(cache, spec), 1, 0)
	full, err := cache.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if err := cache.Put(ctx, key, full[:n]); err != nil {
			t.Fatal(err)
		}
		e := New(Options{Workers: 1, Cache: cache})
		calls.Store(0)
		got, err := mapSweep(e, spec, fn)
		if err != nil {
			t.Fatal(err)
		}
		if misses := e.Metrics().CacheMisses.Sum(); misses != 1 || got.Cached != 3 {
			t.Fatalf("prefix %q: %d misses, %d cached; want 1 and 3", full[:n], misses, got.Cached)
		}
		if c := calls.Load(); c != 1 {
			t.Fatalf("prefix %q: %d cells recomputed, want 1", full[:n], c)
		}
		if !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("prefix %q: points %v, want %v", full[:n], got.Points, want.Points)
		}
	}
}

// A scalar sample has strict prefixes that decode: a float64 cell cached as
// 0.123456789 and cut to 0.1234 is still a float. A cut entry, and one with
// a digit changed, must both be misses that recompute the cell, not hits
// that serve a wrong value.
func TestAlteredScalarCacheEntryIsRecomputed(t *testing.T) {
	spec := Spec{Experiment: "torn-scalar", Params: struct{ Seed int64 }{5}, Points: 2, Trials: 2}
	var calls atomic.Int64
	fn := func(p, tr int) (float64, error) {
		calls.Add(1)
		return float64(10*p+tr) + 0.123456789, nil
	}
	want, err := mapSweep(New(Options{Workers: 1}), spec, fn)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := store.Open("file://" + t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mapSweep(New(Options{Workers: 1, Cache: cache}), spec, fn); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := cellKey(cacheKeyBase(cache, spec), 1, 0)
	full, err := cache.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	changed := bytes.Clone(full)
	changed[len(changed)-1]-- // ...789 → ...788
	for name, value := range map[string][]byte{
		"truncated":     full[:len(full)-7],
		"changed digit": changed,
	} {
		if err := cache.Put(ctx, key, value); err != nil {
			t.Fatal(err)
		}
		e := New(Options{Workers: 1, Cache: cache})
		calls.Store(0)
		got, err := mapSweep(e, spec, fn)
		if err != nil {
			t.Fatal(err)
		}
		if misses := e.Metrics().CacheMisses.Sum(); misses != 1 || got.Cached != 3 || calls.Load() != 1 {
			t.Errorf("%s entry: %d misses, %d cached, %d recomputed; want 1, 3, 1", name, misses, got.Cached, calls.Load())
		}
		if !reflect.DeepEqual(got.Points, want.Points) {
			t.Errorf("%s entry: points %v, want %v", name, got.Points, want.Points)
		}
	}
}
