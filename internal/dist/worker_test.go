package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"snd/client"
	"snd/internal/runner"
)

// serveCall adapts one coordinator call to a POST handler speaking the /v1
// error envelope, the shape of cmd/sndserve's protocol endpoints.
func serveCall[Req, Resp any](call func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := call(req)
		w.Header().Set("Content-Type", "application/json")
		var aerr *client.APIError
		if errors.As(err, &aerr) {
			w.WriteHeader(aerr.Status)
			json.NewEncoder(w).Encode(map[string]any{"error": aerr})
			return
		}
		json.NewEncoder(w).Encode(resp)
	}
}

// protocolServer serves a coordinator's worker-facing POST routes over
// real HTTP, so a real Worker can run against it.
func protocolServer(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("POST "+PathRegister, serveCall(func(req RegisterRequest) (RegisterResponse, error) {
		return c.Register(req), nil
	}))
	mux.Handle("POST "+PathLease, serveCall(func(req LeaseRequest) (LeaseResponse, error) {
		return c.Lease(req.WorkerID)
	}))
	mux.Handle("POST "+PathRenew, serveCall(func(req RenewRequest) (RenewResponse, error) {
		return c.Renew(req.WorkerID, req.BatchID)
	}))
	mux.Handle("POST "+PathResults, serveCall(c.Report))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// A worker holding a batch when the coordinator starts draining finishes
// and reports that batch, then exits cleanly: the lease answer's Draining
// flag is the signal, within a few Poll intervals of the report.
func TestWorkerExitsOnDrain(t *testing.T) {
	coord := NewCoordinator(Options{LocalWorkers: -1, BatchSize: 4})
	ts := protocolServer(t, coord)
	rec := newRecorder()
	sweepc := make(chan error, 1)
	go func() {
		sweepc <- coord.RunSweep(context.Background(), syntheticDesc(1, 4), nil, rec.deliver)
	}()

	holding := make(chan struct{}, 1)
	release := make(chan struct{})
	const poll = 100 * time.Millisecond
	w := NewWorker(NewClient(ts.URL, nil), WorkerOptions{
		Name: "w",
		Poll: poll,
		Execute: func(ctx context.Context, b *Batch) ([]runner.CellSample, error) {
			holding <- struct{}{}
			<-release
			return resultsFor(b.Cells), nil
		},
	})
	runc := make(chan error, 1)
	go func() { runc <- w.Run(context.Background()) }()

	select {
	case <-holding:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never leased the batch")
	}
	coord.Drain()
	close(release)

	select {
	case err := <-sweepc:
		if err != nil {
			t.Fatalf("RunSweep: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the held batch was never reported")
	}
	if rec.len() != 4 {
		t.Fatalf("delivered %d cells, want 4", rec.len())
	}
	select {
	case err := <-runc:
		if err != nil {
			t.Fatalf("Run = %v, want nil", err)
		}
	case <-time.After(3 * poll):
		t.Fatal("worker still running 3 poll intervals after reporting under drain")
	}
	if batches, cells := w.Stats(); batches != 1 || cells != 4 {
		t.Errorf("worker stats = %d batches, %d cells; want 1, 4", batches, cells)
	}
}
