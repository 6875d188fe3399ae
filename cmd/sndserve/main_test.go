package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snd/client"
	"snd/internal/exp"
	"snd/internal/runner"
	"snd/internal/store"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	eng := runner.New(runner.Options{Workers: 4, Cache: store.NewMemStore()})
	s, mux := NewServer(eng, Config{})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (client.Job, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job client.Job
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
	}
	return job, resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) client.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job client.Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch job.Status {
		case "done":
			return job
		case "failed":
			t.Fatalf("job %s failed: %s", id, job.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return client.Job{}
}

func TestSubmitRunsAndDedupes(t *testing.T) {
	_, ts := newTestServer(t)

	const body = `{"experiment":"overhead","params":{"Sizes":[60],"Seed":3}}`
	job, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if job.ID == "" || job.Status == "" {
		t.Fatalf("job missing fields: %+v", job)
	}
	done := waitDone(t, ts, job.ID)
	if done.Result == nil {
		t.Fatal("finished job has no result")
	}

	// Resubmitting the identical job must return the existing one —
	// same ID, already done, result attached — not start a new run.
	again, code := postJob(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200", code)
	}
	if again.ID != job.ID {
		t.Fatalf("resubmit got new job %s, want %s", again.ID, job.ID)
	}
	if again.Status != "done" || again.Result == nil {
		t.Fatalf("resubmit not answered from cache: status=%s", again.Status)
	}

	// Whitespace-only params differences hash to the same job.
	reordered, code := postJob(t, ts, `{"experiment":"overhead","params":{ "Seed": 3, "Sizes": [60] }}`)
	if code != http.StatusOK || reordered.ID != job.ID {
		t.Fatalf("equivalent params made a different job: %s vs %s (status %d)", reordered.ID, job.ID, code)
	}
}

func TestUnknownExperimentAndBadParams(t *testing.T) {
	_, ts := newTestServer(t)

	if _, code := postJob(t, ts, `{"experiment":"nope"}`); code != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d", code)
	}
	if _, code := postJob(t, ts, `{"experiment":"overhead","bogus":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown top-level field: status %d", code)
	}
	// Typoed or mistyped param fields are rejected at submission with a 400
	// envelope naming the bad field — no job is created.
	for _, tc := range []struct{ body, field string }{
		{`{"experiment":"overhead","params":{"Sises":[60]}}`, "Sises"},
		{`{"experiment":"overhead","params":{"Sizes":"sixty"}}`, "Sizes"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error client.APIError }
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad params %s: status %d, want 400", tc.body, resp.StatusCode)
		}
		if e.Error.Code != errBadParams {
			t.Fatalf("bad params %s: code %q, want %q", tc.body, e.Error.Code, errBadParams)
		}
		if e.Error.Field != tc.field {
			t.Fatalf("bad params %s: field %q, want %q", tc.body, e.Error.Field, tc.field)
		}
		if !strings.Contains(e.Error.Message, tc.field) {
			t.Fatalf("error message did not name the bad field: %q", e.Error.Message)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var page client.JobList
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(page.Jobs) != 0 {
		t.Fatalf("rejected submissions created jobs: %+v", page.Jobs)
	}
}

func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	var e struct{ Error client.APIError }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d, want 404", resp.StatusCode)
	}
	if e.Error.Code != errUnknownExperiment || e.Error.Field != "experiment" {
		t.Fatalf("envelope = %+v, want code %q field %q", e.Error, errUnknownExperiment, "experiment")
	}
	if e.Error.Message == "" {
		t.Fatal("envelope has no message")
	}
}

func TestListAndGet(t *testing.T) {
	_, ts := newTestServer(t)

	job, _ := postJob(t, ts, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":4}}`)
	waitDone(t, ts, job.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var page client.JobList
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(page.Jobs) != 1 || page.Jobs[0].ID != job.ID {
		t.Fatalf("list = %+v", page.Jobs)
	}
	if page.Jobs[0].Result != nil {
		t.Error("listing should elide results")
	}
	if page.NextCursor != "" {
		t.Errorf("one-job listing has a next_cursor %q", page.NextCursor)
	}
	if page.Jobs[0].Store == "" {
		t.Error("listed job has no store field")
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d", resp.StatusCode)
	}
}

func TestMetricsAndCatalog(t *testing.T) {
	_, ts := newTestServer(t)

	job, _ := postJob(t, ts, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":5}}`)
	waitDone(t, ts, job.ID)
	postJob(t, ts, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":5}}`) // dedup hit

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"snd_trials_done_total", "snd_jobs_total 1",
		"snd_job_dedup_hits_total 1", `snd_jobs{status="done"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var catalog []exp.CatalogEntry
	if err := json.NewDecoder(resp.Body).Decode(&catalog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	names := exp.Names()
	if len(catalog) != len(names) {
		t.Fatalf("catalog has %d entries, registry %d", len(catalog), len(names))
	}
	for i, entry := range catalog {
		if entry.Name != names[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, entry.Name, names[i])
		}
		if entry.Description == "" {
			t.Errorf("catalog entry %s has no description", entry.Name)
		}
		if len(entry.Params) == 0 {
			t.Errorf("catalog entry %s has an empty params schema", entry.Name)
		}
		if entry.Defaults == nil {
			t.Errorf("catalog entry %s has no defaults", entry.Name)
		}
	}
}
