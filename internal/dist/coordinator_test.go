package dist

import (
	"bytes"
	"context"
	"testing"
	"time"

	"snd/internal/runner"
)

const dtParamsJSON = `{"Points":3,"Trials":4,"Seed":9}`

// A coordinator with no fleet attached must reproduce plain local
// execution exactly: same result bytes, every cell executed by the
// loopback path.
func TestLoopbackOnlyMatchesLocal(t *testing.T) {
	ctx := context.Background()
	local := runDistTest(t, ctx, runner.New(runner.Options{Workers: 2}), dtParamsJSON)

	coord := NewCoordinator(Options{LocalWorkers: 2})
	eng := runner.New(runner.Options{Workers: 2, Backend: coord})
	got := runDistTest(t, ctx, eng, dtParamsJSON)

	if !bytes.Equal(got, local) {
		t.Fatalf("loopback result diverges from local:\n%s\nvs\n%s", got, local)
	}
	if n := coord.m.cells.With("local").Value(); n != 12 {
		t.Errorf("local cells = %d, want 12", n)
	}
	if n := coord.m.leases.With("remote").Value(); n != 0 {
		t.Errorf("remote leases = %d with no workers attached", n)
	}
	if coord.m.leases.With("local").Value() == 0 {
		t.Error("no loopback leases recorded")
	}
}

// Remote workers executing through the experiment registry must produce a
// result byte-identical to a single-process run.
func TestRemoteWorkersEndToEnd(t *testing.T) {
	ctx := context.Background()
	local := runDistTest(t, ctx, runner.New(runner.Options{Workers: 2}), dtParamsJSON)

	// No loopback executors: every cell must travel the remote path.
	coord := NewCoordinator(Options{LocalWorkers: -1, BatchSize: 5})
	eng := runner.New(runner.Options{Workers: 2, Backend: coord})

	done := make(chan struct{})
	w1 := newRemoteWorker(t, coord, "w1")
	w2 := newRemoteWorker(t, coord, "w2")
	go drainWith(w1, done)
	go drainWith(w2, done)

	got := runDistTest(t, ctx, eng, dtParamsJSON)
	close(done)

	if !bytes.Equal(got, local) {
		t.Fatalf("remote result diverges from local:\n%s\nvs\n%s", got, local)
	}
	if n := coord.m.cells.With("remote").Value(); n != 12 {
		t.Errorf("remote cells = %d, want 12", n)
	}
	if n := coord.m.cells.With("local").Value(); n != 0 {
		t.Errorf("local cells = %d, want 0 with loopback disabled", n)
	}
}

// Result posts are idempotent: a duplicate post of a completed batch is
// absorbed and answered Done, never delivered twice.
func TestReportIdempotentDuplicates(t *testing.T) {
	coord := NewCoordinator(Options{LocalWorkers: -1, BatchSize: 100})
	rec := newRecorder()
	desc := syntheticDesc(2, 3)

	errc := make(chan error, 1)
	go func() {
		errc <- coord.RunSweep(context.Background(), desc, nil, rec.deliver)
	}()

	w := coord.Register(RegisterRequest{Name: "dup"})
	var lease LeaseResponse
	var err error
	for i := 0; i < 1000; i++ {
		if lease, err = coord.Lease(w.WorkerID); err != nil {
			t.Fatal(err)
		}
		if lease.Batch != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b := lease.Batch
	if b == nil {
		t.Fatal("no batch leased")
	}
	results := resultsFor(b.Cells)

	first, err := coord.Report(ResultsRequest{WorkerID: w.WorkerID, BatchID: b.ID, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if first.Accepted != len(b.Cells) || first.Duplicates != 0 || !first.Done {
		t.Fatalf("first post: %+v, want all %d accepted and done", first, len(b.Cells))
	}

	// The batch is finished; a retransmit (lost response, worker retry)
	// answers all-duplicates + Done instead of an error.
	second, err := coord.Report(ResultsRequest{WorkerID: w.WorkerID, BatchID: b.ID, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if second.Accepted != 0 || second.Duplicates != len(b.Cells) || !second.Done {
		t.Fatalf("duplicate post: %+v, want all duplicates and done", second)
	}

	if err := <-errc; err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if rec.len() != 6 {
		t.Fatalf("delivered %d cells, want 6 (duplicates must not double-deliver)", rec.len())
	}
}

// Partial posts complete a lease incrementally; the batch is released only
// once every cell has arrived.
func TestPartialPostsCompleteLease(t *testing.T) {
	coord := NewCoordinator(Options{LocalWorkers: -1, BatchSize: 100})
	rec := newRecorder()
	errc := make(chan error, 1)
	go func() {
		errc <- coord.RunSweep(context.Background(), syntheticDesc(1, 4), nil, rec.deliver)
	}()

	w := coord.Register(RegisterRequest{Name: "partial"})
	var b *Batch
	for i := 0; i < 1000 && b == nil; i++ {
		lease, err := coord.Lease(w.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		b = lease.Batch
		time.Sleep(time.Millisecond)
	}
	if b == nil || len(b.Cells) != 4 {
		t.Fatalf("leased batch %+v, want the whole 4-cell sweep", b)
	}

	half, err := coord.Report(ResultsRequest{WorkerID: w.WorkerID, BatchID: b.ID, Results: resultsFor(b.Cells[:2])})
	if err != nil {
		t.Fatal(err)
	}
	if half.Done || half.Accepted != 2 {
		t.Fatalf("half post: %+v, want 2 accepted, not done", half)
	}
	// The lease is still live and renewable after a partial post.
	if _, err := coord.Renew(w.WorkerID, b.ID); err != nil {
		t.Fatalf("renew after partial post: %v", err)
	}
	rest, err := coord.Report(ResultsRequest{WorkerID: w.WorkerID, BatchID: b.ID, Results: resultsFor(b.Cells[2:])})
	if err != nil {
		t.Fatal(err)
	}
	if !rest.Done || rest.Accepted != 2 {
		t.Fatalf("final post: %+v, want 2 accepted and done", rest)
	}
	if err := <-errc; err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
}

// Unregistered workers and unknown leases answer typed protocol errors.
func TestTypedProtocolErrors(t *testing.T) {
	coord := NewCoordinator(Options{LocalWorkers: -1})

	if _, err := coord.Lease("ghost"); !isCode(err, CodeUnknownWorker) {
		t.Errorf("lease from unregistered worker: %v, want %s", err, CodeUnknownWorker)
	}
	w := coord.Register(RegisterRequest{Name: "typed"})
	if _, err := coord.Renew(w.WorkerID, "b00000001"); !isCode(err, CodeUnknownLease) {
		t.Errorf("renew of unknown batch: %v, want %s", err, CodeUnknownLease)
	}
	if _, err := coord.Report(ResultsRequest{WorkerID: w.WorkerID, BatchID: "b00000001"}); !isCode(err, CodeUnknownLease) {
		t.Errorf("report for unknown batch: %v, want %s", err, CodeUnknownLease)
	}
}

// A worker only receives batches of experiments it advertised; an empty
// capability list advertises everything.
func TestCapabilityFilter(t *testing.T) {
	coord := NewCoordinator(Options{LocalWorkers: -1, BatchSize: 100})
	rec := newRecorder()
	errc := make(chan error, 1)
	go func() {
		errc <- coord.RunSweep(context.Background(), syntheticDesc(1, 2), nil, rec.deliver)
	}()

	other := coord.Register(RegisterRequest{Name: "other", Experiments: []string{"fig3"}})
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		lease, err := coord.Lease(other.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		if lease.Batch != nil {
			t.Fatalf("worker limited to fig3 leased a %s batch", lease.Batch.Experiment)
		}
		st := coord.Status()
		if st.Pending > 0 {
			break // batch is queued and was skipped for this worker
		}
		time.Sleep(time.Millisecond)
	}

	able := coord.Register(RegisterRequest{Name: "able", Experiments: []string{"dist-test", "fig3"}})
	lease, err := coord.Lease(able.WorkerID)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Batch == nil {
		t.Fatal("capable worker got no batch")
	}
	if _, err := coord.Report(ResultsRequest{
		WorkerID: able.WorkerID, BatchID: lease.Batch.ID, Results: resultsFor(lease.Batch.Cells),
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
}

// Results from a worker other than the lease holder are rejected typed.
func TestReportFromNonHolderRejected(t *testing.T) {
	coord := NewCoordinator(Options{LocalWorkers: -1, BatchSize: 100})
	rec := newRecorder()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- coord.RunSweep(ctx, syntheticDesc(1, 2), nil, rec.deliver)
	}()

	holder := coord.Register(RegisterRequest{Name: "holder"})
	var b *Batch
	for i := 0; i < 1000 && b == nil; i++ {
		lease, err := coord.Lease(holder.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		b = lease.Batch
		time.Sleep(time.Millisecond)
	}
	if b == nil {
		t.Fatal("no batch leased")
	}
	thief := coord.Register(RegisterRequest{Name: "thief"})
	if _, err := coord.Report(ResultsRequest{
		WorkerID: thief.WorkerID, BatchID: b.ID, Results: resultsFor(b.Cells),
	}); !isCode(err, CodeUnknownLease) {
		t.Fatalf("report from non-holder: %v, want %s", err, CodeUnknownLease)
	}
	cancel()
	<-errc
}
