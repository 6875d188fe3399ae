package dist

import (
	"context"
	"errors"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"snd/client"
	"snd/internal/obs"
	"snd/internal/obs/trace"
	"snd/internal/runner"
)

// Executor runs one leased batch and returns its per-cell samples —
// cmd/sndworker wires exp.RunCells here. A returned error abandons the
// batch (reported as failed, the coordinator re-queues it); a ctx
// cancellation abandons it silently (the lease expires server-side).
type Executor func(ctx context.Context, b *Batch) ([]runner.CellSample, error)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Name is the worker's display name (the coordinator suffixes it into
	// a unique ID).
	Name string
	// Experiments is the capability list sent at registration; empty
	// advertises every experiment.
	Experiments []string
	// Execute runs a leased batch. Required.
	Execute Executor
	// Poll is the idle back-off between lease attempts when the queue is
	// empty; 0 means 500ms.
	Poll time.Duration
	// Logger receives worker logs; nil discards them.
	Logger *slog.Logger
}

// Worker is one fleet member's protocol loop: register, lease, execute,
// renew while executing, report, repeat. Batches run serially — fleet
// parallelism comes from running more workers, which keeps each worker's
// failure domain (and a crash's forfeited work) one batch wide.
type Worker struct {
	client *Client
	opts   WorkerOptions
	log    *slog.Logger

	draining atomic.Bool

	mu      sync.Mutex
	id      string
	batches int
	cells   int
}

// NewWorker builds a worker against the given coordinator client.
func NewWorker(client *Client, opts WorkerOptions) *Worker {
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	if opts.Name == "" {
		opts.Name = "worker"
	}
	return &Worker{client: client, opts: opts, log: opts.Logger}
}

// StartDrain asks the loop to exit gracefully: the in-flight batch (if
// any) finishes and reports, then Run returns. A hard stop is the ctx
// passed to Run — cancelling it abandons the in-flight batch to lease
// expiry.
func (w *Worker) StartDrain() { w.draining.Store(true) }

// Stats reports batches and cells completed so far.
func (w *Worker) Stats() (batches, cells int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.batches, w.cells
}

// Run drives the worker until ctx is cancelled, StartDrain takes effect,
// or the coordinator reports itself draining.
func (w *Worker) Run(ctx context.Context) error {
	if w.opts.Execute == nil {
		return errors.New("dist: worker needs an Executor")
	}
	reg, err := w.register(ctx)
	if err != nil {
		return err
	}
	renewEvery := parseDurationOr(reg.RenewEvery, DefaultLeaseTTL/3)
	w.log.Info("registered", "worker", reg.WorkerID,
		"lease_ttl", reg.LeaseTTL, "renew_every", renewEvery)

	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if w.draining.Load() {
			w.log.Info("drained", "worker", w.workerID())
			return nil
		}
		lease, err := w.client.Lease(ctx, w.workerID())
		switch {
		case isCode(err, CodeUnknownWorker):
			// Coordinator restarted or pruned us: re-register and go on.
			if _, err := w.register(ctx); err != nil {
				return err
			}
			continue
		case err != nil:
			w.log.Warn("lease request failed; backing off", "err", err)
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		if lease.Draining {
			w.log.Info("coordinator draining; worker exiting", "worker", w.workerID())
			return nil
		}
		if lease.Batch == nil {
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		w.runBatch(ctx, lease.Batch, renewEvery)
	}
}

func (w *Worker) register(ctx context.Context) (RegisterResponse, error) {
	var last error
	for attempt := 0; attempt < 30; attempt++ {
		resp, err := w.client.Register(ctx, RegisterRequest{
			Name: w.opts.Name, Experiments: w.opts.Experiments,
		})
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.mu.Unlock()
			return resp, nil
		}
		last = err
		w.log.Warn("register failed; retrying", "attempt", attempt+1, "err", err)
		if !sleepCtx(ctx, time.Second) {
			return RegisterResponse{}, ctx.Err()
		}
	}
	return RegisterResponse{}, last
}

func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// runBatch executes one leased batch: a renewal goroutine keeps the lease
// alive (and observes revocation — job_cancelled on renew cancels the
// batch ctx), the executor computes the samples, and the results post with
// retries. Every exit path is safe: an abandoned or unreported batch is
// re-queued by the coordinator on lease expiry, and re-execution is
// bit-identical by construction, so crash-mid-batch costs time, never
// correctness.
func (w *Worker) runBatch(ctx context.Context, b *Batch, renewEvery time.Duration) {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// With a local tracer and a propagated sweep context, the batch runs
	// under a span in the coordinator's trace; the whole worker-side span
	// subtree ships back with the results post so the coordinator's flight
	// recorder holds one connected trace across processes.
	tr := trace.TracerFrom(ctx)
	var bspan *trace.Span
	if tr != nil && b.Traceparent != "" {
		bspan = tr.StartRemote("worker.batch", b.Traceparent)
		bspan.SetAttr("batch", b.ID)
		bspan.SetAttr("worker", w.workerID())
		bspan.SetAttr("experiment", b.Experiment)
		bspan.SetAttr("attempt", strconv.Itoa(b.Attempt))
		bspan.SetAttr("cells", strconv.Itoa(len(b.Cells)))
		bctx = trace.ContextWithSpan(bctx, bspan)
	}

	w.log.Info("executing batch", "batch", b.ID, "experiment", b.Experiment,
		"cells", len(b.Cells), "attempt", b.Attempt)

	var cancelled atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.renewLoop(bctx, b.ID, renewEvery, &cancelled, cancel)
	}()

	start := time.Now()
	results, err := w.opts.Execute(bctx, b)
	cancel()
	wg.Wait()

	switch {
	case cancelled.Load() || ctx.Err() != nil:
		bspan.Event("abandoned")
		bspan.End()
		w.log.Info("batch abandoned", "batch", b.ID)
		return
	case err != nil:
		bspan.SetError(err)
		bspan.End()
		w.log.Warn("batch execution failed", "batch", b.ID, "err", err)
		_, rerr := w.client.Report(ctx, ResultsRequest{
			WorkerID: w.workerID(), BatchID: b.ID, Failed: err.Error(),
			Spans: w.batchSpans(tr, bspan),
		})
		if rerr != nil {
			w.log.Warn("failure report not delivered (lease will expire)", "batch", b.ID, "err", rerr)
		}
		return
	}

	bspan.End()
	resp, err := w.report(ctx, ResultsRequest{
		WorkerID: w.workerID(), BatchID: b.ID, Results: results,
		Spans: w.batchSpans(tr, bspan),
	})
	if err != nil {
		w.log.Warn("results not delivered (lease will expire and requeue)",
			"batch", b.ID, "err", err)
		return
	}
	w.mu.Lock()
	w.batches++
	w.cells += resp.Accepted
	w.mu.Unlock()
	w.log.Info("batch reported", "batch", b.ID,
		"accepted", resp.Accepted, "duplicates", resp.Duplicates,
		"took", time.Since(start).Truncate(time.Millisecond))
}

// batchSpans snapshots this worker's recorded spans of the batch's trace
// for shipment with a results post. The snapshot may include spans from an
// earlier batch of the same sweep (same trace ID); the coordinator's ingest
// dedupes by span ID, so over-shipping is harmless.
func (w *Worker) batchSpans(tr *trace.Tracer, bspan *trace.Span) []trace.SpanData {
	if tr == nil || bspan == nil {
		return nil
	}
	return tr.TraceSpans(bspan.TraceID())
}

// renewLoop extends the lease every renewEvery until the batch ctx ends.
// A typed job_cancelled or unknown_lease answer means the work is no
// longer ours — flag it and cancel the executor.
func (w *Worker) renewLoop(ctx context.Context, batchID string, every time.Duration,
	cancelled *atomic.Bool, cancel context.CancelFunc) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		_, err := w.client.Renew(ctx, w.workerID(), batchID)
		var aerr *client.APIError
		if errors.As(err, &aerr) && (aerr.Code == CodeJobCancelled || aerr.Code == CodeUnknownLease) {
			w.log.Info("lease lost; abandoning batch", "batch", batchID, "code", aerr.Code)
			cancelled.Store(true)
			cancel()
			return
		}
		if err != nil {
			w.log.Warn("renew failed (transient)", "batch", batchID, "err", err)
		}
	}
}

// report posts results with retries; typed revocation answers are final.
func (w *Worker) report(ctx context.Context, req ResultsRequest) (ResultsResponse, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		resp, err := w.client.Report(ctx, req)
		if err == nil {
			return resp, nil
		}
		if errors.As(err, new(*client.APIError)) {
			return ResultsResponse{}, err // typed: retrying cannot change the answer
		}
		last = err
		if !sleepCtx(ctx, time.Duration(attempt+1)*500*time.Millisecond) {
			return ResultsResponse{}, ctx.Err()
		}
	}
	return ResultsResponse{}, last
}

func parseDurationOr(s string, fallback time.Duration) time.Duration {
	if d, err := time.ParseDuration(s); err == nil && d > 0 {
		return d
	}
	return fallback
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
