package dist

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"snd/internal/exp"
	"snd/internal/runner"
)

// fakeClock drives lease expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// A lease that is never renewed expires and its batch is re-leased to the
// next worker; the dead worker's late renew/report answer unknown_lease.
func TestLeaseExpiryRequeuesBatch(t *testing.T) {
	clock := newFakeClock()
	coord := NewCoordinator(Options{LocalWorkers: -1, BatchSize: 100, LeaseTTL: 10 * time.Second, Now: clock.Now})
	rec := newRecorder()
	errc := make(chan error, 1)
	go func() {
		errc <- coord.RunSweep(context.Background(), syntheticDesc(2, 2), nil, rec.deliver)
	}()

	w1 := coord.Register(RegisterRequest{Name: "w1"})
	var b1 *Batch
	for i := 0; i < 1000 && b1 == nil; i++ {
		lease, err := coord.Lease(w1.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		b1 = lease.Batch
		time.Sleep(time.Millisecond)
	}
	if b1 == nil {
		t.Fatal("no batch leased")
	}
	if b1.Attempt != 1 {
		t.Fatalf("first grant attempt = %d, want 1", b1.Attempt)
	}

	// w1 goes silent past the TTL; the next lease poll reclaims the batch.
	clock.Advance(11 * time.Second)
	w2 := coord.Register(RegisterRequest{Name: "w2"})
	lease2, err := coord.Lease(w2.WorkerID)
	if err != nil {
		t.Fatal(err)
	}
	b2 := lease2.Batch
	if b2 == nil || b2.ID != b1.ID {
		t.Fatalf("reclaimed lease = %+v, want batch %s re-granted", b2, b1.ID)
	}
	if b2.Attempt != 2 {
		t.Fatalf("re-grant attempt = %d, want 2", b2.Attempt)
	}
	if n := coord.m.leaseExpired.Value(); n != 1 {
		t.Errorf("lease_expired = %d, want 1", n)
	}
	if n := coord.m.requeues.Value(); n != 1 {
		t.Errorf("requeues = %d, want 1", n)
	}

	// The dead worker coming back sees typed unknown_lease, not silence.
	if _, err := coord.Renew(w1.WorkerID, b1.ID); !isCode(err, CodeUnknownLease) {
		t.Errorf("stale renew: %v, want %s", err, CodeUnknownLease)
	}
	if _, err := coord.Report(ResultsRequest{WorkerID: w1.WorkerID, BatchID: b1.ID, Results: resultsFor(b1.Cells)}); !isCode(err, CodeUnknownLease) {
		t.Errorf("stale report: %v, want %s", err, CodeUnknownLease)
	}

	if _, err := coord.Report(ResultsRequest{WorkerID: w2.WorkerID, BatchID: b2.ID, Results: resultsFor(b2.Cells)}); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if rec.len() != 4 {
		t.Fatalf("delivered %d cells, want 4", rec.len())
	}
}

// A worker killed mid-batch — half its results posted, then silence —
// must cost only time: the lease expires, the batch is re-queued, another
// worker re-executes it (already-posted cells absorbed as duplicates), and
// the final result is byte-identical to a single-process run.
func TestWorkerCrashMidBatchBitIdentical(t *testing.T) {
	ctx := context.Background()
	params := `{"Points":4,"Trials":4,"Seed":31}`
	local := runDistTest(t, ctx, runner.New(runner.Options{Workers: 2}), params)

	// Pure fleet: no loopback, so recovery must come from re-leasing.
	coord := NewCoordinator(Options{LocalWorkers: -1, BatchSize: 4, LeaseTTL: 150 * time.Millisecond})
	eng := runner.New(runner.Options{Workers: 2, Backend: coord})

	type runOut struct {
		res []byte
		err error
	}
	resultc := make(chan runOut, 1)
	go func() {
		res, err := runDistTestErr(ctx, eng, params)
		resultc <- runOut{res, err}
	}()

	// The "crashing" worker: lease one batch, compute it fully, post only
	// half the cells, then go silent forever.
	crasher := coord.Register(RegisterRequest{Name: "crasher"})
	weng := runner.New(runner.Options{Workers: 2})
	var b *Batch
	for i := 0; i < 5000 && b == nil; i++ {
		lease, err := coord.Lease(crasher.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		b = lease.Batch
		time.Sleep(time.Millisecond)
	}
	if b == nil {
		t.Fatal("crasher never leased a batch")
	}
	results, err := exp.RunCells(ctx, weng, b.Experiment, b.Params, b.SweepID, b.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Report(ResultsRequest{
		WorkerID: crasher.WorkerID, BatchID: b.ID, Results: results[:len(results)/2],
	}); err != nil {
		t.Fatal(err)
	}
	// kill -9: the crasher never renews, reports, or polls again.

	// An honest worker drains the rest of the fleet's queue — including,
	// once the crashed lease expires, the re-queued remainder.
	done := make(chan struct{})
	honest := newRemoteWorker(t, coord, "honest")
	go drainWith(honest, done)

	out := <-resultc
	close(done)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !bytes.Equal(out.res, local) {
		t.Fatalf("post-crash result diverges from single-process run:\n%s\nvs\n%s", out.res, local)
	}
	if coord.m.leaseExpired.Value() < 1 {
		t.Error("crash did not surface as a lease expiry")
	}
	if coord.m.requeues.Value() < 1 {
		t.Error("crashed batch was not re-queued")
	}
	// The honest worker re-executed the whole crashed batch; the cells the
	// crasher managed to post had to be absorbed as duplicates.
	if coord.m.cells.With("duplicate").Value() < 1 {
		t.Error("re-executed cells were not absorbed as duplicates")
	}
}

// Cancelling a sweep revokes its outstanding remote leases: renew and
// report answer job_cancelled.
func TestCancelRevokesOutstandingLeases(t *testing.T) {
	coord := NewCoordinator(Options{LocalWorkers: -1, BatchSize: 2})
	rec := newRecorder()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- coord.RunSweep(ctx, syntheticDesc(2, 2), nil, rec.deliver)
	}()

	w := coord.Register(RegisterRequest{Name: "w"})
	var b *Batch
	for i := 0; i < 1000 && b == nil; i++ {
		lease, err := coord.Lease(w.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		b = lease.Batch
		time.Sleep(time.Millisecond)
	}
	if b == nil {
		t.Fatal("no batch leased")
	}

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSweep = %v, want context.Canceled", err)
	}

	if _, err := coord.Renew(w.WorkerID, b.ID); !isCode(err, CodeJobCancelled) {
		t.Errorf("renew after cancel: %v, want %s", err, CodeJobCancelled)
	}
	if _, err := coord.Report(ResultsRequest{WorkerID: w.WorkerID, BatchID: b.ID, Results: resultsFor(b.Cells)}); !isCode(err, CodeJobCancelled) {
		t.Errorf("report after cancel: %v, want %s", err, CodeJobCancelled)
	}
	if coord.m.revocations.Value() < 1 {
		t.Error("revocation counter not bumped")
	}
}

// A batch a worker reports as failed is re-queued immediately, and past
// the remote-attempt cap it is pinned to loopback execution: the fleet
// never sees it again, but the sweep still completes.
func TestFailedBatchPinsLocalAfterMaxAttempts(t *testing.T) {
	coord := NewCoordinator(Options{LocalWorkers: 1, BatchSize: 2, MaxAttempts: 1})
	rec := newRecorder()

	// Gate the loopback executor: its first cell blocks until released, so
	// the remote worker deterministically gets the second batch.
	release := make(chan struct{})
	var once sync.Once
	run := func(c runner.Cell) bool {
		once.Do(func() { <-release })
		rec.deliver(c, sampleFor(c))
		return true
	}

	errc := make(chan error, 1)
	go func() {
		errc <- coord.RunSweep(context.Background(), syntheticDesc(2, 2), run, rec.deliver)
	}()

	// Wait until the loopback holds its batch.
	deadline := time.Now().Add(5 * time.Second)
	for coord.Status().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("loopback never leased a batch")
		}
		time.Sleep(time.Millisecond)
	}

	w := coord.Register(RegisterRequest{Name: "failer"})
	var b *Batch
	for i := 0; i < 1000 && b == nil; i++ {
		lease, err := coord.Lease(w.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		b = lease.Batch
		time.Sleep(time.Millisecond)
	}
	if b == nil {
		t.Fatal("remote worker never got the second batch")
	}
	if _, err := coord.Report(ResultsRequest{WorkerID: w.WorkerID, BatchID: b.ID, Failed: "simulated"}); err != nil {
		t.Fatal(err)
	}
	if coord.m.batchFails.Value() != 1 {
		t.Errorf("batch_failures = %d, want 1", coord.m.batchFails.Value())
	}

	// Past the cap, the batch is local-only: the fleet gets nothing more.
	lease, err := coord.Lease(w.WorkerID)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Batch != nil {
		t.Fatalf("batch re-leased remotely (%+v) past MaxAttempts", lease.Batch)
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if rec.len() != 4 {
		t.Fatalf("delivered %d cells, want 4", rec.len())
	}
}

// Draining stops remote leasing while loopback execution finishes the
// sweep, so graceful shutdown never strands a job.
func TestDrainStopsRemoteLeasesButFinishesSweeps(t *testing.T) {
	coord := NewCoordinator(Options{LocalWorkers: 2, BatchSize: 2})
	w := coord.Register(RegisterRequest{Name: "w"})
	coord.Drain()

	rec := newRecorder()
	run := func(c runner.Cell) bool { rec.deliver(c, sampleFor(c)); return true }
	if err := coord.RunSweep(context.Background(), syntheticDesc(2, 3), run, rec.deliver); err != nil {
		t.Fatalf("RunSweep while draining: %v", err)
	}
	if rec.len() != 6 {
		t.Fatalf("delivered %d cells, want 6", rec.len())
	}

	lease, err := coord.Lease(w.WorkerID)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Batch != nil || !lease.Draining {
		t.Fatalf("lease while draining = %+v, want draining and no batch", lease)
	}
}

// Status reflects the live fleet, sorted for stable output.
func TestStatusSnapshot(t *testing.T) {
	coord := NewCoordinator(Options{LocalWorkers: -1})
	coord.Register(RegisterRequest{Name: "beta"})
	coord.Register(RegisterRequest{Name: "alpha"})
	st := coord.Status()
	if len(st.Workers) != 2 {
		t.Fatalf("%d workers in status, want 2", len(st.Workers))
	}
	ids := []string{st.Workers[0].ID, st.Workers[1].ID}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("worker IDs not sorted: %v", ids)
	}
}
