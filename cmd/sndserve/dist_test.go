package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snd/client"
	"snd/internal/dist"
	"snd/internal/exp"
	"snd/internal/obs"
	"snd/internal/runner"
	"snd/internal/store"
)

// test-dist is a deterministic distributable sweep whose result keeps
// every raw sample, so divergence between local and fleet execution shows
// up in a byte comparison of the job result.
type testDistResult struct {
	exp.HealthReport
	All [][]float64
}

func (r *testDistResult) Render() string { return fmt.Sprintf("test-dist: %d points", len(r.All)) }

func init() {
	exp.Register("test-dist", "test-only: deterministic distributable sweep",
		func(p struct {
			Points  int
			Trials  int
			Seed    int64
			SleepMs int
		}) exp.Sweep[float64, *testDistResult] {
			if p.Points == 0 {
				p.Points = 2
			}
			if p.Trials == 0 {
				p.Trials = 2
			}
			return exp.Sweep[float64, *testDistResult]{
				Name: "test-dist", Params: p, Points: p.Points, Trials: p.Trials,
				Trial: func(point, trial int) (float64, error) {
					if p.SleepMs > 0 {
						time.Sleep(time.Duration(p.SleepMs) * time.Millisecond)
					}
					return float64(runner.TrialSeed(p.Seed, point, trial)%100000) / 7.0, nil
				},
				Reduce: func(out *runner.Outcome[float64]) (*testDistResult, error) {
					return &testDistResult{All: out.Points}, nil
				},
			}
		})
}

// newCoordinatorServer builds a sndserve wired the way -coordinator wires
// it: shared registry, coordinator as the engine's backend, protocol
// mounted under /v1/dist/*. localWorkers < 0 disables loopback so tests
// can force the remote path.
func newCoordinatorServer(t *testing.T, localWorkers int, ttl time.Duration) (*dist.Coordinator, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	coord := dist.NewCoordinator(dist.Options{
		BatchSize:    4,
		LeaseTTL:     ttl,
		LocalWorkers: localWorkers,
		Registry:     reg,
	})
	eng := runner.New(runner.Options{
		Workers: 2, Cache: store.NewMemStore(), Registry: reg, Backend: coord,
	})
	_, mux := NewServer(eng, Config{Coordinator: coord})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return coord, ts
}

// startWorker attaches a fleet worker (the sndworker loop, minus the
// process) to a server over real HTTP.
func startWorker(t *testing.T, ts *httptest.Server, name string) *dist.Worker {
	t.Helper()
	weng := runner.New(runner.Options{Workers: 2, Cache: store.NewMemStore()})
	w := dist.NewWorker(dist.NewClient(ts.URL, nil), dist.WorkerOptions{
		Name: name,
		Poll: 2 * time.Millisecond,
		Execute: func(ctx context.Context, b *dist.Batch) ([]runner.CellSample, error) {
			return exp.RunCells(ctx, weng, b.Experiment, b.Params, b.SweepID, b.Cells)
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return w
}

func resultJSON(t *testing.T, job client.Job) []byte {
	t.Helper()
	enc, err := json.Marshal(job.Result)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// A job executed by fleet workers over the HTTP protocol must produce a
// result byte-identical to the same job on a plain server, and the worker
// fleet must show up in /v1/metrics.
func TestDistJobOverHTTPWorkersBitIdentical(t *testing.T) {
	const body = `{"experiment":"test-dist","params":{"Points":3,"Trials":4,"Seed":17}}`

	_, plain := newTestServer(t)
	baseJob, code := postJob(t, plain, body)
	if code != http.StatusAccepted {
		t.Fatalf("baseline submit: status %d", code)
	}
	baseline := resultJSON(t, waitDone(t, plain, baseJob.ID))

	// Coordinator with loopback disabled: only the fleet can execute.
	_, ts := newCoordinatorServer(t, -1, 0)
	startWorker(t, ts, "w1")
	startWorker(t, ts, "w2")

	job, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	got := resultJSON(t, waitDone(t, ts, job.ID))
	if !bytes.Equal(got, baseline) {
		t.Fatalf("fleet-executed result diverges from plain server:\n%s\nvs\n%s", got, baseline)
	}

	text := fetchMetrics(t, ts)
	if errs := obs.Lint(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("coordinator exposition fails lint:\n%v", errs)
	}
	for _, want := range []string{
		"snd_dist_workers 2",
		`snd_dist_leases_granted_total{mode="remote"}`,
		`snd_dist_cells_total{status="remote"} 12`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// With no workers attached, a -coordinator server falls back to loopback
// execution: jobs complete exactly as on a plain server.
func TestDistNoWorkersFallsBackToLoopback(t *testing.T) {
	const body = `{"experiment":"test-dist","params":{"Points":2,"Trials":3,"Seed":23}}`

	_, plain := newTestServer(t)
	baseJob, _ := postJob(t, plain, body)
	baseline := resultJSON(t, waitDone(t, plain, baseJob.ID))

	_, ts := newCoordinatorServer(t, 2, 0)
	job, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	got := resultJSON(t, waitDone(t, ts, job.ID))
	if !bytes.Equal(got, baseline) {
		t.Fatalf("loopback result diverges from plain server:\n%s\nvs\n%s", got, baseline)
	}
}

// DELETE on a distributed job revokes its outstanding leases: the worker
// is told job_cancelled, the revocation counter moves, and the fleet stays
// healthy for the next job.
func TestDistDeleteJobRevokesLeases(t *testing.T) {
	coord, ts := newCoordinatorServer(t, -1, 0)
	startWorker(t, ts, "w")

	// Slow cells so the job is mid-lease when cancelled.
	job, code := postJob(t, ts, `{"experiment":"test-dist","params":{"Points":4,"Trials":4,"SleepMs":200,"Seed":29}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.Status().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never leased a batch")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if code := deleteJob(t, ts, job.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", code)
	}
	waitStatus(t, ts, job.ID, client.StatusCancelled)

	if !strings.Contains(fetchMetrics(t, ts), "snd_dist_lease_revocations_total 1") {
		t.Error("lease revocation not recorded after DELETE")
	}

	// The worker abandons the revoked batch and serves the next job.
	next, code := postJob(t, ts, `{"experiment":"test-dist","params":{"Points":2,"Trials":2,"Seed":31}}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d", code)
	}
	waitDone(t, ts, next.ID)
}

// Without -coordinator, /v1/dist/* answers the typed coordinator_disabled
// envelope.
func TestDistDisabledAnswersTypedError(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+dist.PathLease, "application/json", strings.NewReader(`{"worker_id":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var env struct {
		Error client.APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != dist.CodeCoordinatorDisabled {
		t.Fatalf("code %q, want %s", env.Error.Code, dist.CodeCoordinatorDisabled)
	}
}

// Killing a worker mid-batch over the HTTP path: its lease expires, the
// batch is re-executed by the surviving worker, and the job result is
// byte-identical to the plain-server run.
func TestDistWorkerKilledMidJobFailsOver(t *testing.T) {
	const body = `{"experiment":"test-dist","params":{"Points":4,"Trials":4,"SleepMs":20,"Seed":37}}`

	_, plain := newTestServer(t)
	baseJob, _ := postJob(t, plain, body)
	baseline := resultJSON(t, waitDone(t, plain, baseJob.ID))

	coord, ts := newCoordinatorServer(t, -1, 300*time.Millisecond)

	// The victim worker gets its own cancel so "kill" is abrupt: no drain,
	// no report — exactly a SIGKILL'd process.
	victimCtx, kill := context.WithCancel(context.Background())
	victimEng := runner.New(runner.Options{Workers: 2})
	victim := dist.NewWorker(dist.NewClient(ts.URL, nil), dist.WorkerOptions{
		Name: "victim",
		Poll: 2 * time.Millisecond,
		Execute: func(ctx context.Context, b *dist.Batch) ([]runner.CellSample, error) {
			return exp.RunCells(ctx, victimEng, b.Experiment, b.Params, b.SweepID, b.Cells)
		},
	})
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		victim.Run(victimCtx)
	}()

	startWorker(t, ts, "survivor")

	job, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	// Kill the victim as soon as the fleet is mid-sweep.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Status().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no lease granted before kill")
		}
		time.Sleep(2 * time.Millisecond)
	}
	kill()
	<-victimDone

	got := resultJSON(t, waitDone(t, ts, job.ID))
	if !bytes.Equal(got, baseline) {
		t.Fatalf("post-kill result diverges from plain server:\n%s\nvs\n%s", got, baseline)
	}
}
