package dist

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"snd/internal/obs"
	"snd/internal/obs/trace"
	"snd/internal/runner"
)

// DefaultLeaseTTL is the lease duration when Options.LeaseTTL is zero.
const DefaultLeaseTTL = 10 * time.Second

// DefaultMaxAttempts caps remote lease grants per batch: a batch re-queued
// past the cap is pinned to loopback execution, so a poisonous batch
// cannot ping-pong across the fleet forever.
const DefaultMaxAttempts = 3

// maxRecentBatches bounds the completed-batch attribution list in Status.
const maxRecentBatches = 32

// Options configures a Coordinator.
type Options struct {
	// BatchSize is the cells-per-batch target; 0 means DefaultBatchSize.
	BatchSize int
	// LeaseTTL is how long a granted lease lives without renewal; 0 means
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// LocalWorkers bounds the loopback executors per sweep — normally the
	// engine's pool width, so a coordinator with no fleet attached keeps
	// the local machine exactly as busy as the plain engine would. 0 means
	// GOMAXPROCS; negative disables loopback execution entirely (tests
	// exercising the pure-fleet path).
	LocalWorkers int
	// Registry receives the coordinator's metrics; nil creates a private
	// one.
	Registry *obs.Registry
	// Logger receives lease-lifecycle logs; nil discards them.
	Logger *slog.Logger
	// Now is the clock, injectable for failover tests; nil means time.Now.
	Now func() time.Time
}

// Coordinator owns the lease table: it partitions every offered sweep into
// cell batches, hands batches to workers (remote ones over /v1/dist/*,
// loopback ones in-process) under renewable TTL leases, accepts per-cell
// results idempotently, and re-queues expired, failed, or revoked-then-
// reassigned batches so a killed worker never loses a sweep. It implements
// runner.Backend; construct with NewCoordinator.
type Coordinator struct {
	batchSize    int
	ttl          time.Duration
	localWorkers int
	// workerExpiry (3×ttl) is how long a silent worker stays counted in
	// the fleet gauge. Liveness only affects observability — correctness
	// rests on lease expiry, not worker expiry.
	workerExpiry time.Duration
	log          *slog.Logger
	m            *metrics
	now          func() time.Time

	// mu guards the whole table. Result delivery into a sweep's grid also
	// runs under it, which is what lets RunSweep return with the guarantee
	// that no late delivery is still writing: finishSweep serializes
	// behind any in-flight Report. Trial execution (the long pole) never
	// holds it.
	mu       sync.Mutex
	workers  map[string]*workerState
	sweeps   map[*sweepRun]struct{}
	queue    []*batch          // pending, FIFO
	leases   map[string]*batch // by batch ID
	finished map[string]*batchRecord
	revoked  map[string]time.Time // batch ID → when its sweep was revoked
	nextID   uint64
	draining bool
}

type workerState struct {
	id       string
	name     string
	caps     map[string]bool // empty = every experiment
	lastSeen time.Time
	batches  int64
	cells    int64
	failed   int64 // batches this worker reported failed
	expired  int64 // leases reclaimed from this worker by TTL
}

// batchRecord is a finished batch's attribution, kept (bounded by the same
// 1h horizon as straggler answers) so Status can say who completed what
// after how many grants.
type batchRecord struct {
	at       time.Time
	sweepID  string
	worker   string // completing worker ID, or "local"
	attempts int
	cells    int
}

// batch states: a batch lives in exactly one of the coordinator's queue
// (pending), leases (granted), or is gone (finished / revoked, its ID
// remembered for typed answers to stragglers).
type batch struct {
	id        string
	sr        *sweepRun
	cells     []runner.Cell
	attempts  int // remote grants so far
	localOnly bool
	worker    string // current remote lease holder
	local     bool   // held by a loopback executor (no TTL)
	expiry    time.Time
	grantedAt time.Time
}

// sweepRun is one RunSweep call's scheduling state.
type sweepRun struct {
	desc        runner.SweepDesc
	run         func(runner.Cell) bool
	deliver     func(runner.Cell, []byte) bool
	completed   []bool // by point*Trials+trial
	remaining   int
	outstanding int // batches not yet finished (pending+leased)
	aborted     bool
	finished    bool
	done        chan struct{}
	doneOnce    sync.Once
	// span is the sweep's trace span (nil when untraced). Scheduling
	// lifecycle — grants, expiries, requeues, failures, revocations — is
	// recorded as events on it, so a dropped batch's whole history is
	// reconstructable from one trace.
	span *trace.Span
}

func (sr *sweepRun) idx(c runner.Cell) int { return c.Point*sr.desc.Trials + c.Trial }

func (sr *sweepRun) close() { sr.doneOnce.Do(func() { close(sr.done) }) }

// NewCoordinator builds an empty lease table.
func NewCoordinator(opts Options) *Coordinator {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	switch {
	case opts.LocalWorkers == 0:
		opts.LocalWorkers = runtime.GOMAXPROCS(0)
	case opts.LocalWorkers < 0:
		opts.LocalWorkers = 0
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	c := &Coordinator{
		batchSize:    opts.BatchSize,
		ttl:          opts.LeaseTTL,
		localWorkers: opts.LocalWorkers,
		workerExpiry: 3 * opts.LeaseTTL,
		log:          opts.Logger,
		m:            newMetrics(reg),
		now:          opts.Now,
		workers:      make(map[string]*workerState),
		sweeps:       make(map[*sweepRun]struct{}),
		leases:       make(map[string]*batch),
		finished:     make(map[string]*batchRecord),
		revoked:      make(map[string]time.Time),
	}
	reg.OnGather(c.refreshGauges)
	return c
}

func (c *Coordinator) refreshGauges() {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := c.now().Add(-c.workerExpiry)
	live := int64(0)
	for id, w := range c.workers {
		if w.lastSeen.After(cutoff) {
			live++
		} else if w.lastSeen.Before(c.now().Add(-10 * c.workerExpiry)) {
			delete(c.workers, id)
		}
	}
	c.m.workers.Set(live)
	c.m.sweepsActive.Set(int64(len(c.sweeps)))
	c.m.batches.With("pending").Set(int64(len(c.queue)))
	c.m.batches.With("leased").Set(int64(len(c.leases)))
}

// RunSweep implements runner.Backend: partition the grid, enqueue the
// batches, run loopback executors against the same lease table the fleet
// leases from, and return once every cell is accounted for (or the sweep
// aborted on a trial error, or ctx ended).
func (c *Coordinator) RunSweep(ctx context.Context, desc runner.SweepDesc,
	run func(runner.Cell) bool, deliver func(runner.Cell, []byte) bool) error {

	cells := partitionCells(desc.Points, desc.Trials, c.batchSize)
	sr := &sweepRun{
		desc:      desc,
		run:       run,
		deliver:   deliver,
		completed: make([]bool, desc.Points*desc.Trials),
		remaining: desc.Points * desc.Trials,
		done:      make(chan struct{}),
		span:      trace.SpanFromContext(ctx),
	}
	sr.span.Event("scheduled",
		"sweep", desc.ID, "batches", strconv.Itoa(len(cells)),
		"cells", strconv.Itoa(desc.Points*desc.Trials))

	c.mu.Lock()
	c.sweeps[sr] = struct{}{}
	for _, cs := range cells {
		c.nextID++
		b := &batch{id: fmt.Sprintf("b%08x", c.nextID), sr: sr, cells: cs}
		c.queue = append(c.queue, b)
		sr.outstanding++
	}
	c.mu.Unlock()
	c.log.Info("sweep scheduled", "sweep", desc.ID, "experiment", desc.Experiment,
		"cells", desc.Points*desc.Trials, "batches", len(cells))

	nloc := c.localWorkers
	if nloc > len(cells) {
		nloc = len(cells)
	}
	var wg sync.WaitGroup
	for i := 0; i < nloc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loopback(ctx, sr)
		}()
	}

	var err error
	select {
	case <-sr.done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.finishSweep(sr)
	wg.Wait()
	return err
}

// loopback is one in-process executor: it leases pending batches of its
// own sweep through the same table remote workers lease from, executes
// their cells with full engine fidelity via sr.run, and completes them. It
// also sweeps expired remote leases while polling, so a dead worker's
// batch is reclaimed even on an otherwise idle coordinator.
func (c *Coordinator) loopback(ctx context.Context, sr *sweepRun) {
	for {
		b := c.leaseLocal(sr)
		if b == nil {
			select {
			case <-sr.done:
				return
			case <-ctx.Done():
				return
			case <-time.After(10 * time.Millisecond):
				continue
			}
		}
		for _, cell := range b.cells {
			if ctx.Err() != nil || c.sweepOver(sr) {
				return
			}
			if c.alreadyCompleted(sr, cell) {
				continue
			}
			if !sr.run(cell) {
				c.abortSweep(sr)
				return
			}
			c.completeCell(sr, cell, "local")
		}
		c.finishBatch(b, "loopback")
	}
}

func (c *Coordinator) leaseLocal(sr *sweepRun) *batch {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.now())
	for i, b := range c.queue {
		if b.sr != sr {
			continue
		}
		c.queue = append(c.queue[:i], c.queue[i+1:]...)
		b.local, b.worker = true, ""
		b.grantedAt = c.now()
		c.leases[b.id] = b
		c.m.leases.With("local").Inc()
		return b
	}
	return nil
}

func (c *Coordinator) sweepOver(sr *sweepRun) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sr.finished || sr.aborted
}

func (c *Coordinator) alreadyCompleted(sr *sweepRun, cell runner.Cell) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sr.completed[sr.idx(cell)]
}

// completeCell marks one locally-executed cell done. The grid slot was
// written by sr.run, which held the cell exclusively: a cell belongs to
// one batch and a batch to one live lease.
func (c *Coordinator) completeCell(sr *sweepRun, cell runner.Cell, status string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sr.completed[sr.idx(cell)] {
		return
	}
	sr.completed[sr.idx(cell)] = true
	sr.remaining--
	c.m.cells.With(status).Inc()
	if sr.remaining == 0 {
		sr.close()
	}
}

func (c *Coordinator) abortSweep(sr *sweepRun) {
	c.mu.Lock()
	sr.aborted = true
	c.mu.Unlock()
	sr.close()
}

func (c *Coordinator) finishBatch(b *batch, who string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishBatchLocked(b, who)
}

func (c *Coordinator) finishBatchLocked(b *batch, who string) {
	if _, held := c.leases[b.id]; !held {
		return
	}
	delete(c.leases, b.id)
	worker := who
	if b.local {
		worker = "local"
	}
	c.finished[b.id] = &batchRecord{
		at:       c.now(),
		sweepID:  b.sr.desc.ID,
		worker:   worker,
		attempts: b.attempts,
		cells:    len(b.cells),
	}
	b.sr.outstanding--
	if !b.local {
		c.m.batchSeconds.Observe(c.now().Sub(b.grantedAt).Seconds())
	}
	b.sr.span.Event("batch_done", "batch", b.id, "worker", worker,
		"attempt", strconv.Itoa(b.attempts), "cells", strconv.Itoa(len(b.cells)))
	c.log.Debug("batch finished", "batch", b.id, "by", who, "cells", len(b.cells))
}

// finishSweep removes a sweep from the table once its RunSweep call is
// returning: pending batches are dropped, and outstanding remote leases
// are revoked so the holder's next renewal or result post answers
// job_cancelled instead of silently accepting work for a dead
// sweep. Running under mu also guarantees no in-flight Report is still
// delivering into the sweep's grid when RunSweep returns.
func (c *Coordinator) finishSweep(sr *sweepRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sr.finished = true
	delete(c.sweeps, sr)
	kept := c.queue[:0]
	for _, b := range c.queue {
		if b.sr != sr {
			kept = append(kept, b)
		}
	}
	c.queue = kept
	for id, b := range c.leases {
		if b.sr != sr {
			continue
		}
		delete(c.leases, id)
		if !b.local && sr.remaining > 0 {
			c.revoked[id] = c.now()
			c.m.revocations.Inc()
			sr.span.Event("lease_revoked", "batch", id, "worker", b.worker)
			c.log.Info("lease revoked", "batch", id, "worker", b.worker)
		}
	}
	sr.close()
}

// expireLocked reclaims remote leases whose TTL lapsed and re-queues their
// batches; a batch past the remote-attempt cap is pinned local-only. Also
// prunes stale finished/revoked records.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, b := range c.leases {
		if b.local || b.expiry.After(now) {
			continue
		}
		delete(c.leases, id)
		c.m.leaseExpired.Inc()
		if w := c.workers[b.worker]; w != nil {
			w.expired++
		}
		b.sr.span.Event("lease_expired", "batch", id, "worker", b.worker,
			"attempt", strconv.Itoa(b.attempts))
		c.log.Warn("lease expired, requeueing batch",
			"batch", id, "worker", b.worker, "attempt", b.attempts)
		c.requeueLocked(b)
	}
	horizon := now.Add(-time.Hour)
	for id, rec := range c.finished {
		if rec.at.Before(horizon) {
			delete(c.finished, id)
		}
	}
	for id, at := range c.revoked {
		if at.Before(horizon) {
			delete(c.revoked, id)
		}
	}
}

func (c *Coordinator) requeueLocked(b *batch) {
	b.worker, b.local = "", false
	// Past the remote-attempt cap the batch is pinned to loopback
	// execution — unless there are no loopback executors at all, in which
	// case remote retry is the only way the batch can ever finish.
	if b.attempts >= DefaultMaxAttempts && c.localWorkers > 0 {
		b.localOnly = true
	}
	c.queue = append(c.queue, b)
	c.m.requeues.Inc()
	b.sr.span.Event("requeue", "batch", b.id,
		"attempt", strconv.Itoa(b.attempts),
		"local_only", strconv.FormatBool(b.localOnly))
}

// Register admits a worker to the fleet and assigns its ID.
func (c *Coordinator) Register(req RegisterRequest) RegisterResponse {
	caps := make(map[string]bool, len(req.Experiments))
	for _, e := range req.Experiments {
		caps[e] = true
	}
	name := req.Name
	if name == "" {
		name = "worker"
	}
	c.mu.Lock()
	c.nextID++
	w := &workerState{
		id:       fmt.Sprintf("%s-%04x", name, c.nextID),
		name:     name,
		caps:     caps,
		lastSeen: c.now(),
	}
	c.workers[w.id] = w
	c.mu.Unlock()
	c.log.Info("worker registered", "worker", w.id, "experiments", len(req.Experiments))
	return RegisterResponse{
		WorkerID:   w.id,
		LeaseTTL:   c.ttl.String(),
		RenewEvery: (c.ttl / 3).String(),
	}
}

func (c *Coordinator) workerLocked(id string) (*workerState, *Error) {
	w := c.workers[id]
	if w == nil {
		return nil, errf(CodeUnknownWorker, "worker %q is not registered (register first)", id)
	}
	w.lastSeen = c.now()
	return w, nil
}

// Lease grants the next schedulable batch to a registered worker, or none
// when the queue has nothing the worker can execute (or the coordinator is
// draining).
func (c *Coordinator) Lease(workerID string) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, werr := c.workerLocked(workerID)
	if werr != nil {
		return LeaseResponse{}, werr
	}
	if c.draining {
		return LeaseResponse{Draining: true}, nil
	}
	c.expireLocked(c.now())
	for i, b := range c.queue {
		if b.localOnly || b.sr.finished || b.sr.aborted {
			continue
		}
		if len(w.caps) > 0 && !w.caps[b.sr.desc.Experiment] {
			continue
		}
		c.queue = append(c.queue[:i], c.queue[i+1:]...)
		b.worker, b.local = workerID, false
		b.attempts++
		now := c.now()
		b.grantedAt, b.expiry = now, now.Add(c.ttl)
		c.leases[b.id] = b
		c.m.leases.With("remote").Inc()
		b.sr.span.Event("lease_granted", "batch", b.id, "worker", workerID,
			"attempt", strconv.Itoa(b.attempts), "cells", strconv.Itoa(len(b.cells)))
		c.log.Info("lease granted", "batch", b.id, "worker", workerID,
			"sweep", b.sr.desc.ID, "cells", len(b.cells), "attempt", b.attempts)
		return LeaseResponse{Batch: &Batch{
			ID:          b.id,
			SweepID:     b.sr.desc.ID,
			Experiment:  b.sr.desc.Experiment,
			Params:      b.sr.desc.Params,
			Cells:       b.cells,
			LeaseTTL:    c.ttl.String(),
			Attempt:     b.attempts,
			Traceparent: b.sr.span.Traceparent(),
		}}, nil
	}
	return LeaseResponse{}, nil
}

// Renew extends a held lease. Typed failures: unknown_lease once the lease
// expired or was reassigned, job_cancelled once the sweep was revoked —
// the renewal path is how a worker mid-batch observes DELETE /v1/jobs/{id}.
func (c *Coordinator) Renew(workerID, batchID string) (RenewResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, werr := c.workerLocked(workerID); werr != nil {
		return RenewResponse{}, werr
	}
	if _, revoked := c.revoked[batchID]; revoked {
		return RenewResponse{}, errf(CodeJobCancelled, "batch %s: its job was cancelled; abandon it", batchID)
	}
	b := c.leases[batchID]
	if b == nil || b.local || b.worker != workerID {
		return RenewResponse{}, errf(CodeUnknownLease, "no live lease on batch %s for worker %s", batchID, workerID)
	}
	b.expiry = c.now().Add(c.ttl)
	return RenewResponse{LeaseTTL: c.ttl.String()}, nil
}

// Report accepts a batch's results idempotently: cells already completed
// (an expired lease re-executed elsewhere, or a duplicate post) are
// counted and discarded, everything else is delivered into the sweep's
// grid. A non-empty Failed abandons the batch and re-queues it
// immediately. Results for a finished batch answer all-duplicates rather
// than an error, so a worker double-posting after a lost response stays
// idempotent end to end.
func (c *Coordinator) Report(req ResultsRequest) (ResultsResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, werr := c.workerLocked(req.WorkerID)
	if werr != nil {
		return ResultsResponse{}, werr
	}
	if _, revoked := c.revoked[req.BatchID]; revoked {
		return ResultsResponse{}, errf(CodeJobCancelled, "batch %s: its job was cancelled; results discarded", req.BatchID)
	}
	b := c.leases[req.BatchID]
	if b == nil {
		if _, done := c.finished[req.BatchID]; done {
			return ResultsResponse{Duplicates: len(req.Results), Done: true}, nil
		}
		return ResultsResponse{}, errf(CodeUnknownLease, "no live lease on batch %s", req.BatchID)
	}
	if b.local || b.worker != req.WorkerID {
		return ResultsResponse{}, errf(CodeUnknownLease, "batch %s is not leased to worker %s", req.BatchID, req.WorkerID)
	}
	// Merge the worker's span subtree into the flight recorder before any
	// outcome branching: a failed batch's spans are exactly the ones worth
	// keeping. Ingest dedupes by span ID, so re-posts are harmless.
	if len(req.Spans) > 0 {
		b.sr.span.Tracer().Ingest(req.Spans)
	}
	if req.Failed != "" {
		delete(c.leases, req.BatchID)
		c.m.batchFails.Inc()
		w.failed++
		b.sr.span.Event("batch_failed", "batch", b.id, "worker", req.WorkerID,
			"attempt", strconv.Itoa(b.attempts), "err", req.Failed)
		c.log.Warn("batch failed on worker, requeueing",
			"batch", b.id, "worker", req.WorkerID, "err", req.Failed)
		c.requeueLocked(b)
		return ResultsResponse{}, nil
	}

	sr := b.sr
	valid := make(map[int]bool, len(b.cells))
	for _, cell := range b.cells {
		valid[sr.idx(cell)] = true
	}
	resp := ResultsResponse{}
	for _, res := range req.Results {
		if res.Point < 0 || res.Point >= sr.desc.Points || res.Trial < 0 || res.Trial >= sr.desc.Trials || !valid[sr.idx(res.Cell)] {
			continue // not a cell of this batch; ignore
		}
		if sr.completed[sr.idx(res.Cell)] {
			resp.Duplicates++
			c.m.cells.With("duplicate").Inc()
			continue
		}
		var sample []byte
		status := "dropped"
		if !res.Dropped {
			sample = res.Sample
			status = "remote"
		}
		if !sr.deliver(res.Cell, sample) {
			// Undecodable sample: the cell is still owed. Requeue it as a
			// local-only singleton so the loopback recomputes it.
			c.nextID++
			nb := &batch{id: fmt.Sprintf("b%08x", c.nextID), sr: sr,
				cells: []runner.Cell{res.Cell}, localOnly: c.localWorkers > 0}
			c.queue = append(c.queue, nb)
			sr.outstanding++
			c.m.requeues.Inc()
			continue
		}
		sr.completed[sr.idx(res.Cell)] = true
		sr.remaining--
		resp.Accepted++
		w.cells++
		c.m.cells.With(status).Inc()
	}

	// The lease completes once every cell of the batch is accounted for —
	// here or by an earlier partial post, or concurrently by a requeue
	// race the duplicates path absorbed.
	done := true
	for _, cell := range b.cells {
		if !sr.completed[sr.idx(cell)] {
			done = false
			break
		}
	}
	if done {
		c.finishBatchLocked(b, req.WorkerID)
		w.batches++
		resp.Done = true
	}
	if sr.remaining == 0 {
		sr.close()
	}
	return resp, nil
}

// Drain stops granting leases to remote workers. Loopback execution
// continues, so in-flight jobs still finish — drain is the coordinator
// half of sndserve's graceful shutdown.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.log.Info("coordinator draining: no further remote leases")
}

// Status snapshots the fleet for GET /v1/dist/status.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	st := Status{
		Draining:     c.draining,
		ActiveSweeps: len(c.sweeps),
		Pending:      len(c.queue),
		Leased:       len(c.leases),
	}
	cutoff := now.Add(-c.workerExpiry)
	for _, w := range c.workers {
		if !w.lastSeen.After(cutoff) {
			continue
		}
		st.Workers = append(st.Workers, WorkerStatus{
			ID:             w.id,
			Name:           w.name,
			LastSeenAgo:    now.Sub(w.lastSeen).Truncate(time.Millisecond).String(),
			BatchesDone:    w.batches,
			CellsDelivered: w.cells,
			BatchesFailed:  w.failed,
			LeasesExpired:  w.expired,
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	type timed struct {
		id  string
		rec *batchRecord
	}
	recent := make([]timed, 0, len(c.finished))
	for id, rec := range c.finished {
		recent = append(recent, timed{id, rec})
	}
	sort.Slice(recent, func(i, j int) bool { // newest first; ID breaks ties
		if !recent[i].rec.at.Equal(recent[j].rec.at) {
			return recent[i].rec.at.After(recent[j].rec.at)
		}
		return recent[i].id < recent[j].id
	})
	if len(recent) > maxRecentBatches {
		recent = recent[:maxRecentBatches]
	}
	for _, t := range recent {
		st.RecentBatches = append(st.RecentBatches, BatchRecord{
			ID:          t.id,
			SweepID:     t.rec.sweepID,
			Worker:      t.rec.worker,
			Attempts:    t.rec.attempts,
			Cells:       t.rec.cells,
			FinishedAgo: now.Sub(t.rec.at).Truncate(time.Millisecond).String(),
		})
	}
	return st
}
