package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"snd/internal/obs"
	"snd/internal/runner"
	"snd/internal/store"
)

func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// After a real job runs, /metrics must be valid Prometheus text exposition
// (per the obs linter) and carry the engine, job, and HTTP series the
// dashboards are built on.
func TestMetricsExpositionLintsClean(t *testing.T) {
	_, ts := newTestServer(t)

	job, code := postJob(t, ts, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":9}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitDone(t, ts, job.ID)

	text := fetchMetrics(t, ts)
	if errs := obs.Lint(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("exposition fails lint:\n%v\nbody:\n%s", errs, text)
	}
	for _, want := range []string{
		"snd_trial_duration_seconds",
		"snd_trial_queue_wait_seconds",
		"snd_cache_hits_total",
		"snd_cache_misses_total",
		"snd_jobs_inflight 0",
		"snd_jobs_total 1",
		`snd_jobs{status="done"} 1`,
		"snd_http_requests_total",
		"snd_http_request_duration_seconds",
		"snd_trials_inflight 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// HTTP series are labeled by route pattern and status class, never by
	// raw URL, so job IDs must not leak into label values.
	if !strings.Contains(text, `path="/v1/jobs/{id}"`) {
		t.Error("HTTP metrics not labeled by route pattern")
	}
	if strings.Contains(text, job.ID) {
		t.Error("raw job ID leaked into metric labels")
	}
	if !strings.Contains(text, `code="2xx"`) {
		t.Error("HTTP metrics not labeled by status class")
	}
}

// GET /v1/jobs/{id} reports live progress counts plus started/finished
// timestamps once the job has run.
func TestJobProgressAndTimestamps(t *testing.T) {
	_, ts := newTestServer(t)

	job, code := postJob(t, ts, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":11}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitDone(t, ts, job.ID)

	if done.Progress == nil {
		t.Fatal("finished job has no progress")
	}
	if done.Progress.Total == 0 || done.Progress.Done != done.Progress.Total {
		t.Fatalf("progress = %+v, want done == total > 0", *done.Progress)
	}
	if done.Progress.Dropped != 0 {
		t.Fatalf("clean run dropped %d trials", done.Progress.Dropped)
	}
	if done.Started == nil || done.Finished == nil {
		t.Fatalf("timestamps missing: started=%v finished=%v", done.Started, done.Finished)
	}
	if done.Started.Before(done.Created) {
		t.Errorf("started %v before submitted %v", done.Started, done.Created)
	}
	if done.Finished.Before(*done.Started) {
		t.Errorf("finished %v before started %v", done.Finished, done.Started)
	}
}

// /debug/pprof is opt-in: mounted only when Config.Pprof is set.
func TestPprofGating(t *testing.T) {
	get := func(ts *httptest.Server) int {
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	_, off := newTestServer(t)
	if code := get(off); code != http.StatusNotFound {
		t.Errorf("pprof disabled: GET /debug/pprof/ = %d, want 404", code)
	}

	eng := runner.New(runner.Options{Workers: 2, Cache: store.NewMemStore()})
	_, mux := NewServer(eng, Config{Pprof: true})
	on := httptest.NewServer(mux)
	defer on.Close()
	if code := get(on); code != http.StatusOK {
		t.Errorf("pprof enabled: GET /debug/pprof/ = %d, want 200", code)
	}
}
