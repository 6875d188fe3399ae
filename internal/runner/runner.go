// Package runner is the shared experiment-execution engine. Every sweep in
// internal/exp is a grid of (point, trial) cells — a parameter point on the
// x-axis times a number of independent trials. The engine shards the grid
// (MapCtx), or just the cells a coordinator leased (RunCells), across a
// bounded worker pool, memoizes completed cells in a content-addressed
// cache, survives panicking trials, and exposes throughput counters, while
// guaranteeing that the reduced results are bit-identical to a serial run:
//
//   - every trial is executed as a pure function of its (point, trial)
//     indices (runners derive per-trial RNG seeds with TrialSeed or an
//     equivalent index-only formula), so execution order cannot leak into a
//     sample;
//   - samples are collected into a dense [point][trial] grid and handed
//     back in index order, so floating-point reductions in the caller run
//     in the same order regardless of the worker count.
//
// cmd/sndfig and cmd/sndsim expose the pool via -workers; cmd/sndserve
// runs every submitted job on one shared engine.
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"snd/internal/obs"
	"snd/internal/obs/trace"
	"snd/internal/store"
)

// DefaultRetries is the panic-retry budget: a panicking trial is attempted
// once more before being dropped as a failed sample.
const DefaultRetries = 1

// MaxCells bounds the cells of one sweep grid. A sweep allocates a slot
// per cell before its first trial runs, so a Points×Trials taken from a
// request could otherwise exhaust the host's memory or overflow int. The
// largest default sweep in the catalog (fig4) has 450 cells; 1<<20 leaves
// more than 2000× that for explicit params and sndsim -trials, and the
// slots of a full grid stay near 100 MB.
const MaxCells = 1 << 20

// ErrGridTooLarge means a sweep's Points or Points×Trials exceeds
// MaxCells. The sweep is refused before anything is allocated or run.
var ErrGridTooLarge = errors.New("runner: sweep grid too large")

// Options configures an Engine.
type Options struct {
	// Workers bounds the pool; 0 means GOMAXPROCS. 1 degrades to a plain
	// serial loop on the calling goroutine.
	Workers int
	// Cache, when non-nil, memoizes trial samples keyed by a hash of the
	// canonical-encoded sweep parameters and cell indices. Any blob store
	// backend (mem://, file://, s3://) serves. The cache is best-effort:
	// any Get error is a miss and Put errors are ignored, so the sweep
	// simply recomputes next time.
	Cache store.Blob
	// Registry receives the engine's metrics (trial latency and queue-wait
	// histograms, cache hit/miss and lifecycle counters, progress gauges —
	// all labeled by experiment). Nil creates a private registry, reachable
	// via Engine.Registry; cmd/sndserve exposes it as GET /metrics.
	Registry *obs.Registry
	// Backend, when non-nil, receives every distributable sweep (one whose
	// context carries a registry experiment name and whose params encode)
	// instead of the local pool — internal/dist's coordinator implements
	// it to lease cell batches across a worker fleet. Nil keeps every
	// sweep on the local pool.
	Backend Backend
}

// Engine shards sweeps across its worker pool. The zero value is not
// usable; construct with New. An Engine is safe for concurrent use by
// multiple sweeps — cmd/sndserve runs every job on one shared engine so the
// pool, not the job count, bounds CPU use.
type Engine struct {
	workers int
	cache   store.Blob
	reg     *obs.Registry
	metrics *Metrics
	backend Backend
}

// New builds an engine from opts. It does not touch the cache; a
// persistent backend cleans up its own crash debris when opened.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{workers: w, cache: opts.Cache, reg: reg, metrics: newMetrics(reg), backend: opts.Backend}
	e.metrics.Workers.Set(int64(w))
	return e
}

// Workers reports the pool bound.
func (e *Engine) Workers() int { return e.workers }

// Registry returns the metrics registry the engine reports into.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Metrics returns the engine's registered instrumentation — the same
// series the registry exposes, for callers that want programmatic access
// (e.g. cmd/sndfig's -stats quantile summary).
func (e *Engine) Metrics() *Metrics { return e.metrics }

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide engine: GOMAXPROCS workers, no cache.
// Every entry point that takes an engine (MapCtx, RunCells, and the
// exp registry's Run and RunCells) falls back to it when passed nil.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(Options{}) })
	return defaultEngine
}

// Stats is a snapshot of an engine's lifetime counters.
type Stats struct {
	// Sweeps is how many MapCtx calls the engine has served.
	Sweeps int64
	// TrialsStarted counts trial executions begun (cache hits excluded).
	TrialsStarted int64
	// TrialsDone counts trials that produced a sample.
	TrialsDone int64
	// TrialsCached counts cells served from the cache without executing.
	TrialsCached int64
	// TrialsFailed counts trials dropped after exhausting the panic-retry
	// budget.
	TrialsFailed int64
	// TrialsRetried counts panic re-attempts.
	TrialsRetried int64
}

// Stats returns a snapshot of the engine counters. The snapshot is read
// from the same registry series GET /metrics exposes (summed across
// experiments), so the two views cannot drift apart.
func (e *Engine) Stats() Stats {
	m := e.metrics
	return Stats{
		Sweeps:        m.Sweeps.Sum(),
		TrialsStarted: m.Started.Sum(),
		TrialsDone:    m.Done.Sum(),
		TrialsCached:  m.CacheHits.Sum(),
		TrialsFailed:  m.Failed.Sum(),
		TrialsRetried: m.Retried.Sum(),
	}
}

// String renders the snapshot as one line.
func (s Stats) String() string {
	return fmt.Sprintf("sweeps %d, trials %d started / %d done / %d cached / %d failed / %d retried",
		s.Sweeps, s.TrialsStarted, s.TrialsDone, s.TrialsCached, s.TrialsFailed, s.TrialsRetried)
}

// Spec identifies one sweep: its grid shape plus the canonical parameters
// that key the cache.
type Spec struct {
	// Experiment namespaces the cache (e.g. "fig3", "safety").
	Experiment string
	// Params is canonically encoded (JSON) into the cache key; it must
	// capture everything the trial function closes over.
	Params any
	// Points is the number of parameter points (x-axis values).
	Points int
	// Trials is the number of independent trials per point.
	Trials int
}

// TrialFunc computes one cell of the sweep grid. It must be a pure function
// of its indices: same (point, trial) in, same sample out, with no mutation
// of state shared across cells. Samples must round-trip through
// encoding/json for the cache to serve them.
type TrialFunc[T any] func(point, trial int) (T, error)

// Outcome carries the collected samples of one sweep.
type Outcome[T any] struct {
	// Points holds the successful samples per point in trial order. A
	// point's slice is shorter than Spec.Trials when trials failed or the
	// sweep was cancelled before they were scheduled.
	Points [][]T
	// Failed counts trials dropped after the retry budget.
	Failed int
	// Dropped is the per-point breakdown of Failed: Dropped[p] trials at
	// point p exhausted the panic-retry budget and are missing from
	// Points[p]. A nonzero entry means that point's sample count — and
	// therefore its mean — is degraded; callers should surface it rather
	// than silently divide by a smaller n.
	Dropped []int
	// Cancelled marks a sweep stopped early by context cancellation.
	// Points then holds only the samples completed before the stop;
	// missing cells were never executed (they are not counted in Failed).
	Cancelled bool
	// Cached counts cells served from the cache.
	Cached int
	// Elapsed is the sweep's wall-clock time.
	Elapsed time.Duration
}

// MapCtx executes fn over every (point, trial) cell of spec on e's worker
// pool and returns the samples grouped by point in trial order. A nil
// engine uses Default(). fn returning an error aborts the sweep and
// surfaces the first error observed in cell order, with a nil outcome; a
// panicking fn is retried per the engine budget and then dropped as a
// failed sample.
//
// When ctx is cancelled (or its deadline passes) the engine stops
// scheduling new trials immediately; trials already executing run to
// completion (trial functions are pure and uninterruptible), their samples
// are kept and cached, and MapCtx returns the partial Outcome — tagged
// Cancelled — together with ctx.Err(). A trial error still takes
// precedence.
func MapCtx[T any](ctx context.Context, e *Engine, spec Spec, fn TrialFunc[T]) (*Outcome[T], error) {
	progress := ProgressFrom(ctx)
	sw, err := newSweep[T](e, spec, progress)
	if err != nil {
		return nil, err
	}
	total := spec.Points * spec.Trials
	sw.m.sweeps.Inc()
	sw.m.sweepTotal.Add(int64(total))
	if progress != nil {
		progress.total.Add(int64(total))
	}
	start := time.Now()

	// One span per sweep when the context carries a tracer; nil otherwise,
	// and every tracing touch point below no-ops on the nil span. The
	// augmented ctx flows into the backend so distributed scheduling events
	// attach under the same trace.
	ctx, span := trace.Start(ctx, "runner.sweep")
	span.SetAttr("experiment", spec.Experiment)
	span.SetAttr("points", strconv.Itoa(spec.Points))
	span.SetAttr("trials", strconv.Itoa(spec.Trials))
	sw.initTracing(span)

	// A distributable sweep — the engine has a backend, the context names
	// a registry experiment to re-dispatch under, and the params encode —
	// is handed to the backend, which accounts for every cell through the
	// two callbacks (local execution with full fidelity, or delivery of a
	// remotely-computed sample). Everything else runs on the local pool.
	if sw.engine.backend != nil && total > 0 {
		if desc, ok := describeSweep(ctx, spec); ok {
			err := sw.engine.backend.RunSweep(ctx, desc,
				func(c Cell) bool {
					sw.runCell(fn, c.Point, c.Trial, time.Time{})
					return !sw.abort.Load()
				},
				sw.deliverRemote)
			switch {
			case ctx.Err() != nil:
				sw.cancelled.Store(true)
			case err != nil && !sw.abort.Load():
				// Backend infrastructure failure (not a trial error): the
				// sweep cannot be trusted to be complete.
				err = fmt.Errorf("runner: distributed sweep %q: %w", spec.Experiment, err)
				span.SetError(err)
				span.End()
				return nil, err
			}
			return sw.collect(ctx, start)
		}
	}

	sw.execute(ctx, fn, total, func(i int) Cell {
		return Cell{Point: i / spec.Trials, Trial: i % spec.Trials}
	})
	return sw.collect(ctx, start)
}

// newSweep allocates the dense per-cell state of one sweep over spec on e
// (nil uses Default()). progress, when non-nil, is advanced as cells
// complete.
func newSweep[T any](e *Engine, spec Spec, progress *Progress) (*sweep[T], error) {
	if spec.Points < 0 || spec.Trials < 0 {
		return nil, fmt.Errorf("runner: negative grid %dx%d", spec.Points, spec.Trials)
	}
	// Dividing instead of multiplying keeps the check itself from
	// overflowing.
	if spec.Points > MaxCells || (spec.Trials > 0 && spec.Points > MaxCells/spec.Trials) {
		return nil, fmt.Errorf("%w: %dx%d grid, limit %d cells",
			ErrGridTooLarge, spec.Points, spec.Trials, MaxCells)
	}
	if e == nil {
		e = Default()
	}
	return &sweep[T]{
		engine:   e,
		spec:     spec,
		m:        e.metrics.forExperiment(spec.Experiment),
		progress: progress,
		cells:    make([]cellState[T], spec.Points*spec.Trials),
		failedAt: make([]atomic.Int64, spec.Points),
		keyBase:  cacheKeyBase(e.cache, spec),
	}, nil
}

// execute runs the n cells cellAt(0), ..., cellAt(n-1) on up to the
// engine's pool width — the one cell loop behind both MapCtx and RunCells.
// One worker degrades to a serial loop on the calling goroutine. A trial
// error stops new cells from starting; so does ctx ending, which also
// marks the sweep cancelled. Cells already executing run to completion.
func (sw *sweep[T]) execute(ctx context.Context, fn TrialFunc[T], n int, cellAt func(i int) Cell) {
	done := ctx.Done()
	workers := min(sw.engine.workers, n)
	if workers <= 1 {
		for i := 0; i < n && !sw.abort.Load(); i++ {
			select {
			case <-done:
				sw.cancelled.Store(true)
				return
			default:
			}
			c := cellAt(i)
			sw.runCell(fn, c.Point, c.Trial, time.Time{})
		}
		return
	}
	type task struct {
		c   Cell
		enq time.Time
	}
	tasks := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				if sw.abort.Load() || sw.cancelled.Load() {
					continue
				}
				sw.runCell(fn, t.c.Point, t.c.Trial, t.enq)
			}
		}()
	}
	// The tasks channel is unbuffered, so a cancellation observed here
	// leaves at most `workers` cells still executing — everything else is
	// simply never handed out.
feed:
	for i := 0; i < n; i++ {
		select {
		case tasks <- task{cellAt(i), time.Now()}:
		case <-done:
			sw.cancelled.Store(true)
			break feed
		}
	}
	close(tasks)
	wg.Wait()
}

// collect builds the Outcome once scheduling has finished — shared by the
// local-pool and distributed paths, so the two produce identical shapes.
// The first trial error in cell order wins, so the surfaced error, like
// the samples, does not depend on scheduling.
func (sw *sweep[T]) collect(ctx context.Context, start time.Time) (*Outcome[T], error) {
	for i := range sw.cells {
		if err := sw.cells[i].err; err != nil {
			sw.span.SetError(err)
			sw.span.End()
			return nil, err
		}
	}
	sw.finishTracing()

	spec := sw.spec
	out := &Outcome[T]{
		Points:    make([][]T, spec.Points),
		Failed:    int(sw.failed.Load()),
		Dropped:   make([]int, spec.Points),
		Cancelled: sw.cancelled.Load(),
		Cached:    int(sw.cachedN.Load()),
	}
	for p := range out.Points {
		samples := make([]T, 0, spec.Trials)
		for _, c := range sw.cells[p*spec.Trials : (p+1)*spec.Trials] {
			if c.ok {
				samples = append(samples, c.val)
			}
		}
		out.Points[p] = samples
		out.Dropped[p] = int(sw.failedAt[p].Load())
	}
	out.Elapsed = time.Since(start)
	if out.Cancelled {
		return out, ctx.Err()
	}
	return out, nil
}

// describeSweep builds the wire identity of a distributable sweep, or
// ok=false when the sweep cannot leave this process (no registry
// experiment on the context, or params that do not encode).
func describeSweep(ctx context.Context, spec Spec) (SweepDesc, bool) {
	name := JobExperimentFrom(ctx)
	if name == "" {
		return SweepDesc{}, false
	}
	id, params, ok := SweepID(spec)
	if !ok {
		return SweepDesc{}, false
	}
	return SweepDesc{
		ID:         id,
		Experiment: name,
		Params:     params,
		Points:     spec.Points,
		Trials:     spec.Trials,
	}, true
}

// deliverRemote records one remotely-computed cell: a nil sample marks a
// remote drop (panicked past the worker's retry budget); otherwise the
// sample is decoded into the grid and written through to the local cache,
// so a re-run of the sweep never re-asks the fleet. A false return means
// the sample did not decode and the cell is still owed.
func (sw *sweep[T]) deliverRemote(c Cell, sample []byte) bool {
	if sample == nil {
		sw.failed.Add(1)
		sw.failedAt[c.Point].Add(1)
		sw.m.failed.Inc()
		if sw.progress != nil {
			sw.progress.dropped.Add(1)
		}
		return true
	}
	var v T
	if err := json.Unmarshal(sample, &v); err != nil {
		return false
	}
	sw.set(c.Point, c.Trial, v)
	sw.m.done.Inc()
	if sw.keyBase != nil {
		_ = sw.engine.cache.Put(context.Background(), cellKey(sw.keyBase, c.Point, c.Trial), sample) // best-effort, as in runCell
	}
	sw.cellDone()
	return true
}

// cellState is one slot of a sweep grid: the sample once it is in (ok),
// or the trial's error.
type cellState[T any] struct {
	val T
	ok  bool
	err error
}

// sweep is the mutable state of one MapCtx or RunCells call. Each cell is
// executed by one goroutine, which alone writes its slot of cells, so only
// the atomics need synchronization.
type sweep[T any] struct {
	engine    *Engine
	spec      Spec
	m         expMetrics
	progress  *Progress
	cells     []cellState[T] // point-major: cell (p, t) is cells[p*Trials+t]
	failedAt  []atomic.Int64
	keyBase   []byte
	abort     atomic.Bool
	cancelled atomic.Bool
	failed    atomic.Int64
	cachedN   atomic.Int64

	// Tracing state; all nil/zero (and untouched) when the sweep's context
	// carries no tracer, so the hot path pays one nil check per cell.
	span        *trace.Span
	sampleEvery int            // every Nth trial gets a span; 0 = none
	pointIDs    []trace.SpanID // pre-allocated so trial spans can parent
	pointStart  []atomic.Int64 // min start per point, unix nanos (0 = unset)
	pointEnd    []atomic.Int64 // max end per point, unix nanos
}

// initTracing wires the sweep to its span. Per-point span IDs are minted up
// front: trial spans recorded mid-sweep parent to them, and the point spans
// themselves are synthesized at collect time from the atomic min-start /
// max-end windows (points interleave across workers, so no goroutine
// observes a point's whole lifetime).
func (sw *sweep[T]) initTracing(span *trace.Span) {
	if span == nil {
		return
	}
	sw.span = span
	sw.sampleEvery = span.Tracer().TrialSampling()
	sw.pointIDs = make([]trace.SpanID, sw.spec.Points)
	for i := range sw.pointIDs {
		sw.pointIDs[i] = trace.NewSpanID()
	}
	sw.pointStart = make([]atomic.Int64, sw.spec.Points)
	sw.pointEnd = make([]atomic.Int64, sw.spec.Points)
}

// trialSpan returns the span for a sampled trial, or nil. Sampling keeps
// the million-cell path clean: with TrialSampling N, one trial in N gets a
// span; the default 0 records none.
func (sw *sweep[T]) trialSpan(p, t int) *trace.Span {
	if sw.span == nil || sw.sampleEvery <= 0 {
		return nil
	}
	if (p*sw.spec.Trials+t)%sw.sampleEvery != 0 {
		return nil
	}
	s := sw.span.StartChildAt("runner.trial", trace.SpanID{}, sw.pointIDs[p], time.Time{})
	s.SetAttr("point", strconv.Itoa(p))
	s.SetAttr("trial", strconv.Itoa(t))
	return s
}

// notePoint widens point p's observed execution window to include
// [start, end]. CAS loops because workers race on both bounds.
func (sw *sweep[T]) notePoint(p int, start, end time.Time) {
	if sw.span == nil {
		return
	}
	s, e := start.UnixNano(), end.UnixNano()
	for {
		cur := sw.pointStart[p].Load()
		if cur != 0 && cur <= s {
			break
		}
		if sw.pointStart[p].CompareAndSwap(cur, s) {
			break
		}
	}
	for {
		cur := sw.pointEnd[p].Load()
		if cur >= e {
			break
		}
		if sw.pointEnd[p].CompareAndSwap(cur, e) {
			break
		}
	}
}

// finishTracing synthesizes one span per point that executed cells locally
// and ends the sweep span. Points whose cells were all cache hits or ran
// remotely have no window and get no span — the cache events and shipped
// worker spans already tell that story.
func (sw *sweep[T]) finishTracing() {
	if sw.span == nil {
		return
	}
	for p := range sw.pointIDs {
		s0 := sw.pointStart[p].Load()
		if s0 == 0 {
			continue
		}
		ps := sw.span.StartChildAt("runner.point", sw.pointIDs[p], trace.SpanID{}, time.Unix(0, s0))
		ps.SetAttr("point", strconv.Itoa(p))
		if d := sw.failedAt[p].Load(); d > 0 {
			ps.SetAttr("dropped", strconv.FormatInt(d, 10))
		}
		ps.EndAt(time.Unix(0, sw.pointEnd[p].Load()))
	}
	sw.span.SetAttr("cached", strconv.FormatInt(sw.cachedN.Load(), 10))
	sw.span.SetAttr("failed", strconv.FormatInt(sw.failed.Load(), 10))
	if sw.cancelled.Load() {
		sw.span.Event("cancelled")
	}
	sw.span.End()
}

// at returns cell (p, t)'s slot.
func (sw *sweep[T]) at(p, t int) *cellState[T] { return &sw.cells[p*sw.spec.Trials+t] }

// set stores cell (p, t)'s sample.
func (sw *sweep[T]) set(p, t int, v T) { *sw.at(p, t) = cellState[T]{val: v, ok: true} }

// cellDone marks one cell completed in the progress views (registry gauge
// plus the per-context tracker, if any).
func (sw *sweep[T]) cellDone() {
	sw.m.sweepDone.Inc()
	if sw.progress != nil {
		sw.progress.done.Add(1)
	}
}

func (sw *sweep[T]) runCell(fn TrialFunc[T], p, t int, enq time.Time) {
	e := sw.engine
	if !enq.IsZero() {
		sw.m.queueWait.Observe(time.Since(enq).Seconds())
	}
	ts := sw.trialSpan(p, t) // nil unless this trial is sampled
	key := ""
	if sw.keyBase != nil {
		key = cellKey(sw.keyBase, p, t)
		// Cache ops run under Background: the hot path has no request
		// context, and an untraced context keeps instrumented backends'
		// tracing to a nil check.
		if data, err := e.cache.Get(context.Background(), key); err == nil {
			var v T
			if err := json.Unmarshal(data, &v); err == nil {
				sw.set(p, t, v)
				sw.cachedN.Add(1)
				sw.m.cacheHits.Inc()
				sw.cellDone()
				ts.Event("cache_hit")
				ts.End()
				return
			}
			// A corrupt entry falls through to recomputation.
		}
		sw.m.cacheMisses.Inc()
		ts.Event("cache_miss")
	}

	sw.m.started.Inc()
	e.metrics.InFlight.Inc()
	defer e.metrics.InFlight.Dec()
	t0 := time.Now()
	v, err, panicked := sw.attempt(fn, p, t, ts)
	elapsed := time.Since(t0)
	if ts != nil {
		// A sampled trial stamps its trace ID onto the latency histogram as
		// an exemplar, so a slow-tail bucket points at a concrete trace.
		sw.m.duration.ObserveWithExemplar(elapsed.Seconds(), ts.TraceID())
	} else {
		sw.m.duration.Observe(elapsed.Seconds())
	}
	sw.notePoint(p, t0, t0.Add(elapsed))
	switch {
	case panicked:
		sw.failed.Add(1)
		sw.failedAt[p].Add(1)
		sw.m.failed.Inc()
		if sw.progress != nil {
			sw.progress.dropped.Add(1)
		}
		ts.SetError(err)
		ts.Event("dropped")
	case err != nil:
		sw.at(p, t).err = err
		sw.abort.Store(true)
		ts.SetError(err)
	default:
		sw.set(p, t, v)
		sw.m.done.Inc()
		sw.cellDone()
		if key != "" {
			if data, err := json.Marshal(v); err == nil {
				// Best-effort: a failed Put only means a recompute later.
				_ = e.cache.Put(context.Background(), key, data)
			}
		}
	}
	ts.End()
}

// attempt runs fn with panic recovery, re-attempting panics up to
// DefaultRetries times. The final return reports whether the cell was
// abandoned to a panic. ts (nil when the trial is unsampled) collects a
// panic_retry event per re-attempt.
func (sw *sweep[T]) attempt(fn TrialFunc[T], p, t int, ts *trace.Span) (v T, err error, panicked bool) {
	for tries := 0; ; tries++ {
		v, err, panicked = safeCall(fn, p, t)
		if !panicked {
			return v, err, false
		}
		if tries >= DefaultRetries {
			return v, err, true
		}
		sw.m.retried.Inc()
		ts.Event("panic_retry", "attempt", strconv.Itoa(tries+1))
	}
}

func safeCall[T any](fn TrialFunc[T], p, t int) (v T, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("runner: trial (%d,%d) panicked: %v", p, t, r)
		}
	}()
	v, err = fn(p, t)
	return v, err, false
}

// cacheKeyBase canonical-encodes the sweep identity; nil disables caching
// for this sweep (no cache configured, or parameters that do not encode).
// It is the same hash SweepID exposes, so a sweep's cache lineage and its
// distributed-scheduling identity are one value by construction.
func cacheKeyBase(c store.Blob, spec Spec) []byte {
	if c == nil {
		return nil
	}
	sum, _ := sweepKey(spec)
	return sum
}

func cellKey(base []byte, p, t int) string {
	h := sha256.New()
	h.Write(base)
	fmt.Fprintf(h, "/%d/%d", p, t)
	return hex.EncodeToString(h.Sum(nil))
}

// TrialSeed derives a deterministic RNG seed from a sweep's base seed and a
// cell's indices, using SplitMix64-style mixing so streams from adjacent
// cells are statistically independent. Runners that do not need to
// preserve a historical seed formula should use this.
func TrialSeed(base int64, point, trial int) int64 {
	z := uint64(base)
	z = mix64(z + 0x9e3779b97f4a7c15)
	z = mix64(z + uint64(point)*0xbf58476d1ce4e5b9 + 1)
	z = mix64(z + uint64(trial)*0x94d049bb133111eb + 1)
	return int64(z)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
