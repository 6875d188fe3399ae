package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"snd/internal/exp"
	"snd/internal/obs/trace"
	"snd/internal/runner"
	"snd/internal/store"
)

// Test-only experiments, registered into the same exp registry the real
// catalog lives in: a sweep that sleeps per trial (cancellable at trial
// granularity), one that blocks until its context is cancelled, one that
// fails while flakyFail is set, and one whose Reduce panics. They exercise
// the lifecycle paths without burning real compute.
var flakyFail atomic.Bool

// testResult satisfies exp.Result for the test experiments.
type testResult struct {
	N int
	exp.HealthReport
}

func (r *testResult) Render() string { return fmt.Sprintf("test: %d", r.N) }

func init() {
	exp.Register("test-sleep", "test-only: sleeps Millis per trial",
		func(p struct {
			Trials int
			Millis int
			Seed   int64
		}) exp.Sweep[int, *testResult] {
			return exp.Sweep[int, *testResult]{
				Name: "test-sleep", Params: p, Points: 1, Trials: p.Trials,
				Trial: func(_, trial int) (int, error) {
					time.Sleep(time.Duration(p.Millis) * time.Millisecond)
					return trial, nil
				},
				Reduce: func(out *runner.Outcome[int]) (*testResult, error) {
					return &testResult{N: len(out.Points[0])}, nil
				},
			}
		})
	// A sweep stops handing out cells once cancelled, so a long grid of
	// short sleeps blocks until its context ends.
	exp.Register("test-block", "test-only: blocks until cancelled",
		func(p struct{ Seed int64 }) exp.Sweep[int, *testResult] {
			return exp.Sweep[int, *testResult]{
				Name: "test-block", Params: p, Points: 1, Trials: 1 << 16,
				Trial: func(_, trial int) (int, error) {
					time.Sleep(5 * time.Millisecond)
					return trial, nil
				},
				Reduce: func(out *runner.Outcome[int]) (*testResult, error) {
					return &testResult{N: len(out.Points[0])}, nil
				},
			}
		})
	exp.Register("test-flaky", "test-only: fails while flakyFail is set",
		func(p struct{ Seed int64 }) exp.Sweep[int, *testResult] {
			return exp.Sweep[int, *testResult]{
				Name: "test-flaky", Params: p, Points: 1, Trials: 1,
				Trial: func(_, trial int) (int, error) {
					if flakyFail.Load() {
						return 0, errors.New("transient failure")
					}
					return trial, nil
				},
				Reduce: func(out *runner.Outcome[int]) (*testResult, error) {
					return &testResult{N: 1}, nil
				},
			}
		})
	// The runner recovers panicking trials, but a Reduce runs on the job's
	// own goroutine, outside that recovery.
	exp.Register("test-panic", "test-only: Reduce panics",
		func(p struct{ Seed int64 }) exp.Sweep[int, *testResult] {
			return exp.Sweep[int, *testResult]{
				Name: "test-panic", Params: p, Points: 1, Trials: 1,
				Trial: func(_, trial int) (int, error) { return trial, nil },
				Reduce: func(out *runner.Outcome[int]) (*testResult, error) {
					panic("reduce exploded")
				},
			}
		})
}

func newLifecycleServer(t *testing.T, cfg Config) (*Server, *runner.Engine, *httptest.Server) {
	t.Helper()
	eng := runner.New(runner.Options{Workers: 2, Cache: store.NewMemStore()})
	s, mux := NewServer(eng, cfg)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, eng, ts
}

func getJob(t *testing.T, ts *httptest.Server, id string) (Job, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
	}
	return job, resp.StatusCode
}

func waitStatus(t *testing.T, ts *httptest.Server, id, want string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var job Job
	for time.Now().Before(deadline) {
		job, _ = getJob(t, ts, id)
		if job.Status == want {
			return job
		}
		if terminal(job.Status) {
			t.Fatalf("job %s reached %s (error %q), want %s", id, job.Status, job.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s stuck at %s, want %s", id, job.Status, want)
	return Job{}
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// DELETE on a running job must transition it to cancelled without leaking
// trial workers: once the job settles, the engine's in-flight gauge is
// back to zero.
func TestDeleteCancelsRunningJob(t *testing.T) {
	s, eng, ts := newLifecycleServer(t, Config{})

	job, code := postJob(t, ts, `{"experiment":"test-sleep","params":{"Trials":500,"Millis":10,"Seed":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, ts, job.ID, StatusRunning)

	if code := deleteJob(t, ts, job.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE running job: status %d, want 202", code)
	}
	got := waitStatus(t, ts, job.ID, StatusCancelled)
	if got.Finished == nil {
		t.Error("cancelled job has no Finished timestamp")
	}

	// Prove the cancellation drained rather than leaked: the engine's
	// in-flight trial count and the server's job gauge both hit zero.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && eng.Metrics().InFlight.Value() != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if n := eng.Metrics().InFlight.Value(); n != 0 {
		t.Errorf("engine still has %d trials in flight after cancel", n)
	}
	s.mu.Lock()
	inFlight := s.inFlight
	s.mu.Unlock()
	if inFlight != 0 {
		t.Errorf("server job gauge = %d after cancel, want 0", inFlight)
	}

	if code := deleteJob(t, ts, job.ID); code != http.StatusConflict {
		t.Errorf("DELETE finished job: status %d, want 409", code)
	}
	if code := deleteJob(t, ts, "doesnotexist"); code != http.StatusNotFound {
		t.Errorf("DELETE missing job: status %d, want 404", code)
	}
}

// A job submitted with a timeout that expires mid-run fails with a
// deadline error naming the budget.
func TestJobDeadlineExpiryFailsJob(t *testing.T) {
	_, _, ts := newLifecycleServer(t, Config{})

	job, code := postJob(t, ts, `{"experiment":"test-sleep","params":{"Trials":500,"Millis":10,"Seed":2},"timeout":"100ms"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, _ := getJob(t, ts, job.ID)
		if terminal(j.Status) {
			if j.Status != StatusFailed {
				t.Fatalf("status = %s, want failed", j.Status)
			}
			if !strings.Contains(j.Error, "deadline exceeded") || !strings.Contains(j.Error, "100ms") {
				t.Fatalf("error %q does not describe the deadline", j.Error)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never finished")
}

// A job whose params ask for an impossibly large sweep fails with the
// runner's grid-size error instead of taking the server down, and the
// server keeps serving.
func TestOversizedJobFailsServerSurvives(t *testing.T) {
	_, _, ts := newLifecycleServer(t, Config{})

	job, code := postJob(t, ts, `{"experiment":"fig3","params":{"Trials":4611686018427387904}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := getJob(t, ts, job.ID)
		if terminal(j.Status) {
			if j.Status != StatusFailed || !strings.Contains(j.Error, runner.ErrGridTooLarge.Error()) {
				t.Fatalf("status %s, error %q; want failed with %q", j.Status, j.Error, runner.ErrGridTooLarge)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("oversized job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	small, code := postJob(t, ts, `{"experiment":"fig3","params":{"Trials":1,"Seed":3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit after the oversized job: status %d", code)
	}
	waitDone(t, ts, small.ID)
}

// A panic outside a trial (here in Reduce) fails its job instead of
// ending the server: the job is failed with the panic text in the table,
// the WAL and its span, it leaves the in-flight count, and the next job
// still runs.
func TestPanickingJobFailsServerSurvives(t *testing.T) {
	wal, err := store.OpenWAL(filepath.Join(t.TempDir(), "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	tracer := trace.New(trace.Options{Capacity: 256})
	s, _, ts := newLifecycleServer(t, Config{Jobs: wal, Tracer: tracer})

	job, code := postJob(t, ts, `{"experiment":"test-panic","params":{"Seed":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	const want = "job panicked: reduce exploded"
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := getJob(t, ts, job.ID)
		if terminal(j.Status) {
			if j.Status != StatusFailed || j.Error != want {
				t.Fatalf("status %s, error %q; want failed with %q", j.Status, j.Error, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("panicking job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	recs, err := wal.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != StatusFailed || recs[0].Error != want {
		t.Errorf("WAL holds %+v, want the job failed with %q", recs, want)
	}

	next, code := postJob(t, ts, `{"experiment":"test-sleep","params":{"Trials":2,"Millis":1,"Seed":9}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit after the panicking job: status %d", code)
	}
	waitDone(t, ts, next.ID)
	// Shutdown returns only once every job goroutine released the WaitGroup.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	s.mu.Lock()
	inFlight := s.inFlight
	s.mu.Unlock()
	if inFlight != 0 {
		t.Errorf("server job gauge = %d, want 0", inFlight)
	}
	// execute ends the job's span after publishing its status; Shutdown
	// has waited for that.
	var spanErr string
	for _, sd := range tracer.TraceSpans(job.TraceID) {
		if sd.Name == "job.run" {
			spanErr = sd.Error
		}
	}
	if spanErr != want {
		t.Errorf("job.run span error = %q, want %q", spanErr, want)
	}
}

// A malformed timeout is rejected up front.
func TestBadTimeoutRejected(t *testing.T) {
	_, _, ts := newLifecycleServer(t, Config{})
	for _, timeout := range []string{"soon", "-5s", "0s"} {
		if _, code := postJob(t, ts, `{"experiment":"test-flaky","timeout":"`+timeout+`"}`); code != http.StatusBadRequest {
			t.Errorf("timeout %q: status %d, want 400", timeout, code)
		}
	}
}

// Resubmitting a failed job must evict the stale entry and re-run instead
// of replaying the failure from the job table forever.
func TestResubmitFailedJobReruns(t *testing.T) {
	_, _, ts := newLifecycleServer(t, Config{})

	flakyFail.Store(true)
	defer flakyFail.Store(false)
	const body = `{"experiment":"test-flaky","params":{"Seed":3}}`
	job, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, _ := getJob(t, ts, job.ID); j.Status == StatusFailed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	flakyFail.Store(false)
	again, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit of failed job: status %d, want 202 (a fresh run)", code)
	}
	if again.ID != job.ID {
		t.Fatalf("resubmit changed the job ID: %s vs %s", again.ID, job.ID)
	}
	done := waitDone(t, ts, again.ID)
	if done.Result == nil {
		t.Error("re-run finished without a result")
	}
}

// The admission cap bounces submissions with 429 once MaxInFlight jobs
// are queued or running, and frees up as jobs finish.
func TestBackpressureRejectsOverCap(t *testing.T) {
	_, _, ts := newLifecycleServer(t, Config{MaxInFlight: 1})

	job, code := postJob(t, ts, `{"experiment":"test-sleep","params":{"Trials":500,"Millis":10,"Seed":4}}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if _, code := postJob(t, ts, `{"experiment":"test-flaky","params":{"Seed":4}}`); code != http.StatusTooManyRequests {
		t.Fatalf("submit over cap: status %d, want 429", code)
	}
	// Resubmitting the running job is a dedup hit, not a new admission.
	if _, code := postJob(t, ts, `{"experiment":"test-sleep","params":{"Trials":500,"Millis":10,"Seed":4}}`); code != http.StatusOK {
		t.Errorf("dedup hit while at cap: status %d, want 200", code)
	}

	if code := deleteJob(t, ts, job.ID); code != http.StatusAccepted {
		t.Fatalf("cancel: status %d", code)
	}
	waitStatus(t, ts, job.ID, StatusCancelled)
	if _, code := postJob(t, ts, `{"experiment":"test-flaky","params":{"Seed":4}}`); code != http.StatusAccepted {
		t.Errorf("submit after drain: status %d, want 202", code)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "snd_jobs_rejected_total 1") {
		t.Errorf("metrics missing rejected counter:\n%s", raw)
	}
}

// Shutdown drains in-flight jobs, then refuses new submissions with 503.
func TestShutdownDrainsAndRefuses(t *testing.T) {
	s, _, ts := newLifecycleServer(t, Config{})

	job, code := postJob(t, ts, `{"experiment":"test-sleep","params":{"Trials":4,"Millis":5,"Seed":5}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	if j, _ := getJob(t, ts, job.ID); j.Status != StatusDone {
		t.Errorf("job drained to %s, want done", j.Status)
	}
	if _, code := postJob(t, ts, `{"experiment":"test-flaky","params":{"Seed":5}}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", code)
	}
}

// When the drain budget expires, Shutdown cancels the stragglers and
// still waits for their cooperative exit.
func TestShutdownHardDeadlineCancels(t *testing.T) {
	s, _, ts := newLifecycleServer(t, Config{})

	job, code := postJob(t, ts, `{"experiment":"test-block"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, ts, job.ID, StatusRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded after forced cancel", err)
	}
	if j, _ := getJob(t, ts, job.ID); j.Status != StatusCancelled {
		t.Errorf("straggler job is %s, want cancelled", j.Status)
	}
}

// Finished jobs are evicted after the TTL; queued/running jobs never are.
func TestFinishedJobsEvictAfterTTL(t *testing.T) {
	s, _, ts := newLifecycleServer(t, Config{JobTTL: time.Hour})

	job, code := postJob(t, ts, `{"experiment":"test-flaky","params":{"Seed":6}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitDone(t, ts, job.ID)

	// Advance the server's clock past the TTL; the next request evicts.
	s.mu.Lock()
	s.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	s.mu.Unlock()

	if _, code := getJob(t, ts, job.ID); code != http.StatusNotFound {
		t.Fatalf("expired job still served: status %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "snd_jobs_evicted_total 1") {
		t.Errorf("metrics missing eviction counter:\n%s", raw)
	}

	// Resubmission after eviction is a fresh run, not a dedup hit.
	if _, code := postJob(t, ts, `{"experiment":"test-flaky","params":{"Seed":6}}`); code != http.StatusAccepted {
		t.Errorf("submit after eviction: status %d, want 202", code)
	}
}
