package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snd/client"
	"snd/internal/dist"
	"snd/internal/obs"
	"snd/internal/obs/trace"
	"snd/internal/runner"
)

// distFuzzRoutes are the POST routes FuzzDistRequest's selector byte picks
// from.
var distFuzzRoutes = []string{dist.PathRegister, dist.PathLease, dist.PathRenew, dist.PathResults}

// FuzzDistRequest: /v1/dist request bodies are untrusted wire input. The
// server under test hosts a coordinator with a traced 2×2 sweep queued and
// one registered worker, "w-0003", holding batch "b00000001" of it. Any
// body posted to any route must answer 200, 400, 404 or 409, never panic,
// and every non-200 answer must be the typed error envelope with a code.
// `go test` runs the committed corpus under testdata/fuzz/FuzzDistRequest;
// `go test -fuzz=FuzzDistRequest` explores further.
func FuzzDistRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, route byte, body []byte) {
		mux := newFuzzCoordinator(t)
		path := distFuzzRoutes[int(route)%len(distFuzzRoutes)]
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		switch rec.Code {
		case http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("POST %s %q: 200 with a non-JSON body %q", path, body, rec.Body)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
			var env struct {
				Error *client.APIError `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code == "" {
				t.Fatalf("POST %s %q: %d without an error envelope: %q", path, body, rec.Code, rec.Body)
			}
		default:
			t.Fatalf("POST %s %q: status %d: %q", path, body, rec.Code, rec.Body)
		}
	})
}

// newFuzzCoordinator builds FuzzDistRequest's server: a fleet-only
// coordinator, a traced 2×2 sweep in batches of two, and worker w-0003
// holding the first batch. The sweep's delivery accepts what a float64
// trial would. Everything is torn down when t ends.
func newFuzzCoordinator(t *testing.T) *http.ServeMux {
	reg := obs.NewRegistry()
	coord := dist.NewCoordinator(dist.Options{LocalWorkers: -1, BatchSize: 2, Registry: reg})
	_, mux := NewServer(runner.New(runner.Options{Workers: 1, Registry: reg, Backend: coord}),
		Config{Coordinator: coord})

	tracer := trace.New(trace.Options{Capacity: 64})
	ctx, cancel := context.WithCancel(trace.ContextWithSpan(context.Background(), tracer.StartRoot("sweep")))
	desc := runner.SweepDesc{ID: "fuzz-sweep", Experiment: "test-dist", Params: json.RawMessage(`{}`), Points: 2, Trials: 2}
	deliver := func(_ runner.Cell, sample []byte) bool {
		var v float64
		return sample == nil || json.Unmarshal(sample, &v) == nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		coord.RunSweep(ctx, desc, nil, deliver)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	for coord.Status().Pending == 0 {
		time.Sleep(time.Millisecond)
	}
	w := coord.Register(dist.RegisterRequest{Name: "w"})
	lease, err := coord.Lease(w.WorkerID)
	if err != nil || lease.Batch == nil || w.WorkerID != "w-0003" || lease.Batch.ID != "b00000001" {
		t.Fatalf("fixture: worker %s leased %+v, %v; want w-0003 holding b00000001", w.WorkerID, lease.Batch, err)
	}
	return mux
}

// A /v1/dist body with a field the protocol does not declare is refused
// with 400 bad_body naming the field, as POST /v1/jobs refuses one.
func TestDistPostRejectsUnknownFields(t *testing.T) {
	mux := newFuzzCoordinator(t)
	rec := httptest.NewRecorder()
	body := `{"worker_id":"w-0003","bogus":true}`
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, dist.PathLease, bytes.NewReader([]byte(body))))
	var env struct {
		Error *client.APIError `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest ||
		env.Error == nil || env.Error.Code != errBadBody || !strings.Contains(env.Error.Message, `"bogus"`) {
		t.Fatalf("POST %s %s: %d %s; want 400 bad_body naming \"bogus\"", dist.PathLease, body, rec.Code, rec.Body)
	}
}
