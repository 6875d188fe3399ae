package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"snd/client"
	"snd/internal/runner"
	"snd/internal/store"
)

// bootPersistent builds a server the way main.go does with
// -store file://... -jobstore ...: a shared blob-backed trial cache and a
// WAL job store, with recovery run before the listener opens. Calling it
// twice against the same dir is a restart.
func bootPersistent(t *testing.T, dir string) (*Server, *httptest.Server, *store.WAL) {
	t.Helper()
	blob, err := store.NewFileStore(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.New(runner.Options{Workers: 4, Cache: blob})
	wal, err := store.OpenWAL(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	s, mux := NewServer(eng, Config{Jobs: wal, StoreScheme: "file"})
	if _, _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mux)
	return s, ts, wal
}

// canon re-encodes a JSON value compactly so results can be compared
// byte-for-byte across restarts.
func canon(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRestartRestoresHistory proves the durable half of the job table: a
// finished job survives a full server teardown with its result intact and
// byte-identical, and resubmission after the restart is a dedup hit.
func TestRestartRestoresHistory(t *testing.T) {
	dir := t.TempDir()
	const body = `{"experiment":"overhead","params":{"Sizes":[60],"Seed":21}}`

	_, ts1, wal1 := bootPersistent(t, dir)
	job, code := postJob(t, ts1, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitDone(t, ts1, job.ID)
	want := canon(t, done.Result)
	ts1.Close()
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2, wal2 := bootPersistent(t, dir)
	defer ts2.Close()
	defer wal2.Close()
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	var recovered client.Job
	if err := json.NewDecoder(resp.Body).Decode(&recovered); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || recovered.Status != client.StatusDone {
		t.Fatalf("recovered job: status %d / %s", resp.StatusCode, recovered.Status)
	}
	if got := canon(t, recovered.Result); got != want {
		t.Fatalf("result changed across restart:\n%s\nvs\n%s", got, want)
	}
	if !recovered.Created.Equal(done.Created) {
		t.Fatalf("created_at changed across restart: %v vs %v", recovered.Created, done.Created)
	}

	// Resubmission is answered from the recovered table, not recomputed.
	again, code := postJob(t, ts2, body)
	if code != http.StatusOK || again.Status != client.StatusDone {
		t.Fatalf("resubmit after restart: status %d / %s, want dedup hit", code, again.Status)
	}
}

// TestRecoverResumesInterrupted proves the resume half: a job that was
// queued or running when the process died re-runs on boot, lands done,
// and — because completed trials live in the shared blob store — produces
// a byte-identical result to an uninterrupted run.
func TestRecoverResumesInterrupted(t *testing.T) {
	dir := t.TempDir()
	params := json.RawMessage(`{"Sizes":[60],"Seed":31}`)

	// Golden: the same job on a throwaway uninterrupted server.
	_, tsGolden := newTestServer(t)
	golden, _ := postJob(t, tsGolden, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":31}}`)
	goldenDone := waitDone(t, tsGolden, golden.ID)
	want := canon(t, goldenDone.Result)

	// Simulate the post-SIGKILL WAL: one job caught mid-run, one queued,
	// one whose experiment no longer exists.
	wal, err := store.OpenWAL(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	created := time.Now().UTC().Add(-time.Minute)
	started := created.Add(time.Second)
	for _, rec := range []client.Job{
		{ID: "interrupted1", Experiment: "overhead", Params: params, Status: client.StatusRunning, Created: created, Started: &started},
		{ID: "interrupted2", Experiment: "overhead", Params: params, Status: client.StatusQueued, Created: created.Add(time.Second)},
		{ID: "orphaned", Experiment: "no-such-experiment", Status: client.StatusQueued, Created: created.Add(2 * time.Second)},
	} {
		if err := wal.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts, wal2 := bootPersistent(t, dir)
	defer ts.Close()
	defer wal2.Close()

	for _, id := range []string{"interrupted1", "interrupted2"} {
		done := waitDone(t, ts, id)
		if got := canon(t, done.Result); got != want {
			t.Fatalf("resumed job %s diverged from golden:\n%s\nvs\n%s", id, got, want)
		}
		if done.Started == nil || done.Finished == nil {
			t.Fatalf("resumed job %s missing timestamps: %+v", id, done)
		}
	}
	// The orphan is visible history, failed with a recovery error — not a
	// crash loop and not silently dropped.
	resp, err := http.Get(ts.URL + "/v1/jobs/orphaned")
	if err != nil {
		t.Fatal(err)
	}
	var orphan client.Job
	if err := json.NewDecoder(resp.Body).Decode(&orphan); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if orphan.Status != client.StatusFailed || orphan.Error == "" {
		t.Fatalf("orphaned job = %+v, want failed with a recovery error", orphan)
	}
}

// TestEvictionPrunesJobStore pins that TTL eviction reaches the durable
// store too: an evicted job does not resurrect on restart.
func TestEvictionPrunesJobStore(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, wal1 := bootPersistent(t, dir)
	job, _ := postJob(t, ts1, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":41}}`)
	waitDone(t, ts1, job.ID)
	// Only now shrink the TTL, so the job can't be evicted mid-wait.
	s1.mu.Lock()
	s1.ttl = 10 * time.Millisecond
	s1.mu.Unlock()

	// Let the TTL lapse, then trigger lazy eviction with a listing.
	time.Sleep(20 * time.Millisecond)
	if page := listPage(t, ts1, ""); len(page.Jobs) != 0 {
		t.Fatalf("job not evicted: %+v", page.Jobs)
	}
	ts1.Close()
	wal1.Close()

	_, ts2, wal2 := bootPersistent(t, dir)
	defer ts2.Close()
	defer wal2.Close()
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job resurrected across restart: status %d", resp.StatusCode)
	}
}
