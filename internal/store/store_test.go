package store_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snd/internal/obs"
	"snd/internal/runner"
	"snd/internal/store"
)

// schemes returns the backend schemes under test, filtered by the
// SND_STORE_SCHEMES env var (comma-separated) so CI can run a per-scheme
// matrix; default is all three.
func schemes() []string {
	env := os.Getenv("SND_STORE_SCHEMES")
	if env == "" {
		return []string{"mem", "file", "s3"}
	}
	return strings.Split(env, ",")
}

// openScheme builds a fresh store of the given scheme for one test.
func openScheme(t *testing.T, scheme string) store.Blob {
	t.Helper()
	switch scheme {
	case "mem":
		return store.NewMemStore()
	case "file":
		b, err := store.Open("file://" + t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return b
	case "s3":
		srv := httptest.NewServer(newFakeS3())
		t.Cleanup(srv.Close)
		b, err := store.Open("s3://bucket/pfx?endpoint=" + srv.URL + "&region=test-1&access=AK&secret=SK")
		if err != nil {
			t.Fatal(err)
		}
		return b
	default:
		t.Fatalf("unknown scheme %q", scheme)
		return nil
	}
}

// TestBlobConformance runs the same contract checks against every
// backend: round trips, overwrite, and ErrNotFound.
func TestBlobConformance(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme, func(t *testing.T) {
			ctx := context.Background()
			b := openScheme(t, scheme)

			if _, err := b.Get(ctx, "missing"); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
			}
			if err := b.Put(ctx, "aa/k1", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := b.Put(ctx, "bb/k2", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if err := b.Put(ctx, "aa/k1", []byte("v1-updated")); err != nil {
				t.Fatal(err)
			}
			for key, want := range map[string]string{"aa/k1": "v1-updated", "bb/k2": "v2"} {
				if got, err := b.Get(ctx, key); err != nil || string(got) != want {
					t.Fatalf("Get(%s) = %q, %v, want %q", key, got, err, want)
				}
			}
		})
	}
}

// sweepSpec is the fixed workload of the differential test: enough cells
// to matter, cheap enough for -race CI.
var sweepSpec = runner.Spec{
	Experiment: "storetest",
	Params:     map[string]any{"Seed": 42},
	Points:     4,
	Trials:     8,
}

func runSweep(t *testing.T, cache store.Blob) (*runner.Outcome[float64], runner.Stats) {
	t.Helper()
	eng := runner.New(runner.Options{Workers: 4, Cache: cache})
	out, err := runner.Map(eng, sweepSpec, func(point, trial int) (float64, error) {
		seed := runner.TrialSeed(42, point, trial)
		return float64(seed%1000) / 7.0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, eng.Stats()
}

// TestDifferentialCacheMatrix runs the same sweep against a cache backed
// by each store scheme and asserts (1) reduced results are byte-identical
// across backends, and (2) a second engine sharing the same store answers
// every cell from the cache — the fleet-dedup property, proven per
// backend against the mem:// reference.
func TestDifferentialCacheMatrix(t *testing.T) {
	type run struct {
		scheme  string
		encoded []byte
	}
	var runs []run
	for _, scheme := range schemes() {
		t.Run(scheme, func(t *testing.T) {
			blob := store.Instrument(openScheme(t, scheme), scheme, obs.NewRegistry())

			out1, stats1 := runSweep(t, blob)
			if stats1.TrialsCached != 0 {
				t.Fatalf("first run reported %d cached trials on an empty store", stats1.TrialsCached)
			}
			cells := int64(sweepSpec.Points * sweepSpec.Trials)
			if stats1.TrialsDone != cells {
				t.Fatalf("first run executed %d trials, want %d", stats1.TrialsDone, cells)
			}

			// A second engine (a different process in production) sharing
			// the same blob store must hit on every cell.
			out2, stats2 := runSweep(t, blob)
			if stats2.TrialsCached != cells {
				t.Fatalf("second run cached %d of %d cells", stats2.TrialsCached, cells)
			}
			if stats2.TrialsStarted != 0 {
				t.Fatalf("second run executed %d trials, want 0", stats2.TrialsStarted)
			}

			enc1, err := json.Marshal(out1.Points)
			if err != nil {
				t.Fatal(err)
			}
			enc2, err := json.Marshal(out2.Points)
			if err != nil {
				t.Fatal(err)
			}
			if string(enc1) != string(enc2) {
				t.Fatalf("cached re-run diverged from compute run:\n%s\nvs\n%s", enc1, enc2)
			}
			runs = append(runs, run{scheme, enc1})
		})
	}
	for i := 1; i < len(runs); i++ {
		if string(runs[i].encoded) != string(runs[0].encoded) {
			t.Fatalf("backend %s results diverge from %s:\n%s\nvs\n%s",
				runs[i].scheme, runs[0].scheme, runs[i].encoded, runs[0].encoded)
		}
	}
}

// Opening a file:// store removes .put-* temp files orphaned by a crash
// mid-Put once they are past the age cutoff, and leaves fresh ones (a
// concurrent Put in flight) and real values alone.
func TestFileStoreSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(sub, ".put-stale")
	fresh := filepath.Join(sub, ".put-fresh")
	entry := filepath.Join(sub, "abcd")
	for _, p := range []string{stale, fresh, entry} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := store.Open("file://" + dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived Open")
	}
	for _, p := range []string{fresh, entry} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s was removed but should have been kept", filepath.Base(p))
		}
	}
}

// TestInstrumentedMetrics pins the snd_store_* series: op counts land
// under the backend label, and ErrNotFound is not an error.
func TestInstrumentedMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	b := store.Instrument(store.NewMemStore(), "mem", reg)
	ctx := context.Background()
	if err := b.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(ctx, "missing"); !errors.Is(err, store.ErrNotFound) {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`snd_store_ops_total{backend="mem",op="put"} 1`,
		`snd_store_ops_total{backend="mem",op="get"} 2`,
		"snd_store_op_duration_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "snd_store_errors_total") &&
		strings.Contains(text, `snd_store_errors_total{backend="mem",op="get"} 1`) {
		t.Error("ErrNotFound counted as a store error")
	}
}

// TestOpenRejectsUnknownScheme pins the factory's error contract.
func TestOpenRejectsUnknownScheme(t *testing.T) {
	if _, err := store.Open("redis://nope"); err == nil {
		t.Fatal("Open(redis://) succeeded")
	}
	if _, err := store.Open("file://"); err == nil {
		t.Fatal("Open(file:// with no dir) succeeded")
	}
	if _, err := store.Open("s3://"); err == nil {
		t.Fatal("Open(s3:// with no bucket) succeeded")
	}
	if _, err := store.Open("mem://"); err != nil {
		t.Fatalf("Open(mem://) = %v", err)
	}
}

// TestScheme pins the label helper.
func TestScheme(t *testing.T) {
	for raw, want := range map[string]string{
		"":                 "mem",
		"mem://":           "mem",
		"file:///var/x":    "file",
		"s3://bucket/pfx":  "s3",
		"s3://b?endpoint=": "s3",
	} {
		if got := store.Scheme(raw); got != want {
			t.Errorf("Scheme(%q) = %q, want %q", raw, got, want)
		}
	}
}
