package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"snd/internal/obs/trace"
	"snd/internal/runner"
	"snd/internal/store"
)

var updateWire = flag.Bool("update-wire", false, "rewrite the /v1 wire and WAL fixtures")

// traceIDRe matches the one value of a traced server's output that no
// clock controls.
var traceIDRe = regexp.MustCompile(`("trace_id": ?")[0-9a-f]{32}"`)

// checkWire compares got, trace IDs normalized, with the fixture at path.
func checkWire(t *testing.T, path string, got []byte) {
	t.Helper()
	got = traceIDRe.ReplaceAll(got, []byte(`${1}<trace-id>"`))
	if *updateWire {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: bytes moved\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// wireCall performs one request and returns the status and raw body.
func wireCall(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// wireSubmitDone submits body and waits for the job to finish, returning
// its ID.
func wireSubmitDone(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	job, code := postJob(t, ts, body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit %s: status %d", body, code)
	}
	return waitDone(t, ts, job.ID).ID
}

// TestWireFixtures pins the bytes of the /v1 job resource, a job page, the
// error envelope and the job WAL against fixtures in testdata/wire and
// ../../internal/store/testdata. The server is traced, backed by a file
// store and a WAL, and runs on a frozen clock, so only trace IDs need
// normalizing. Regenerate with -update-wire only for an intended wire
// change.
func TestWireFixtures(t *testing.T) {
	dir := t.TempDir()
	blob, err := store.NewFileStore(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "jobs.wal")
	wal, err := store.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	eng := runner.New(runner.Options{Workers: 2, Cache: blob})
	s, mux := NewServer(eng, Config{Jobs: wal, StoreScheme: "file", Tracer: trace.New(trace.Options{})})
	t0 := time.Date(2026, 3, 14, 15, 9, 26, 535897000, time.UTC)
	s.now = func() time.Time { return t0 }
	ts := httptest.NewServer(mux)
	defer ts.Close()
	wire := filepath.Join("testdata", "wire")

	// submit → run → done: the GET body, result included.
	id := wireSubmitDone(t, ts, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":7}}`)
	code, raw := wireCall(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	checkWire(t, filepath.Join(wire, "job_done.json"), raw)

	// → TTL eviction: the job is gone (404 not_found) and tombstoned.
	s.mu.Lock()
	s.now = func() time.Time { return t0.Add(2 * time.Hour) }
	s.mu.Unlock()
	code, raw = wireCall(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, "")
	if code != http.StatusNotFound {
		t.Fatalf("get after TTL: status %d, want 404", code)
	}
	checkWire(t, filepath.Join(wire, "not_found.json"), raw)
	log, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	checkWire(t, filepath.Join("..", "..", "internal", "store", "testdata", "wal_history.jsonl"), log)

	// A first page of two jobs, one per page.
	wireSubmitDone(t, ts, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":7}}`)
	wireSubmitDone(t, ts, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":8}}`)
	code, raw = wireCall(t, http.MethodGet, ts.URL+"/v1/jobs?limit=1", "")
	if code != http.StatusOK || !bytes.Contains(raw, []byte(`"next_cursor"`)) {
		t.Fatalf("list: status %d, want a page with next_cursor: %s", code, raw)
	}
	checkWire(t, filepath.Join(wire, "jobs_page.json"), raw)

	// A renewal of a lease the coordinator does not track.
	_, dts := newCoordinatorServer(t, 0, time.Minute)
	code, raw = wireCall(t, http.MethodPost, dts.URL+"/v1/dist/register", `{"name":"w","experiments":["overhead"]}`)
	var reg struct {
		WorkerID string `json:"worker_id"`
	}
	if err := json.Unmarshal(raw, &reg); err != nil || code != http.StatusOK {
		t.Fatalf("register: status %d: %s", code, raw)
	}
	code, raw = wireCall(t, http.MethodPost, dts.URL+"/v1/dist/renew",
		`{"worker_id":"`+reg.WorkerID+`","batch_id":"b00000001"}`)
	if code != http.StatusConflict {
		t.Fatalf("renew: status %d, want 409", code)
	}
	checkWire(t, filepath.Join(wire, "unknown_lease.json"), raw)
}
