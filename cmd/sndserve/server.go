package main

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"regexp"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"snd/client"
	"snd/internal/dist"
	"snd/internal/exp"
	"snd/internal/obs"
	"snd/internal/obs/trace"
	"snd/internal/runner"
	"snd/internal/store"
)

// entry is one job of the table: the /v1 resource plus what only the
// running server holds. Jobs are content-addressed: resubmitting the same
// experiment with the same parameters returns the existing job (and its
// finished result) instead of recomputing — unless that job failed or was
// cancelled, in which case the stale entry is evicted and the job re-runs.
// Finished jobs linger in the table for the configured TTL and are then
// evicted.
type entry struct {
	client.Job

	// span is the job's "job.run" span; execute ends it.
	span *trace.Span
	// cancel stops the job's context; nil once the job is finished.
	cancel context.CancelFunc
	// progress is the live tracker behind the Progress snapshots. Totals
	// grow as the experiment schedules its sweeps.
	progress *runner.Progress
	// bound is the registry experiment instance bound to the decoded
	// params at submission; execute runs it on the shared engine.
	bound exp.Experiment
}

// Config bounds the server's job table and in-flight work.
type Config struct {
	// MaxInFlight caps queued+running jobs; submissions beyond it are
	// rejected with 429 instead of spawning an unbounded goroutine each.
	// 0 means DefaultMaxInFlight.
	MaxInFlight int
	// JobTTL is how long finished jobs stay queryable before eviction.
	// 0 means DefaultJobTTL; negative disables eviction.
	JobTTL time.Duration
	// Logger receives structured request and job-lifecycle logs; nil
	// discards them.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof when set. Off by
	// default: profiling endpoints expose goroutine dumps and should be
	// opted into.
	Pprof bool
	// Coordinator, when non-nil, is hosted behind /v1/dist/* so sndworker
	// fleets can lease sweep batches. It should also be the engine's
	// Backend, which main.go wires; the server itself only exposes the
	// protocol and revokes leases on job cancellation.
	Coordinator *dist.Coordinator
	// Tracer, when non-nil, turns on distributed tracing: a root span per
	// /v1 request (joining the client's trace when the request carries a
	// W3C traceparent header), a job.run span per job threaded through the
	// runner and dist layers, and the flight-recorder endpoint
	// GET /v1/debug/traces. Nil leaves every trace touch point a no-op.
	Tracer *trace.Tracer
	// Jobs, when non-nil, persists every job transition so the table
	// survives restarts: finished jobs come back as queryable history and
	// interrupted jobs are re-queued by Recover. Nil keeps the table
	// memory-only.
	Jobs *store.WAL
	// StoreScheme labels jobs (and the store field of the /v1 resource)
	// with the blob-store scheme backing the trial cache: mem, file, or s3.
	StoreScheme string
	// Keys, when non-nil, requires Authorization: Bearer on /v1/jobs*
	// writes and enforces each key's token-bucket rate. Nil leaves the API
	// open (single-tenant mode).
	Keys *Keyring
}

// DefaultMaxInFlight is the admission bound when Config.MaxInFlight is 0.
const DefaultMaxInFlight = 32

// DefaultJobTTL is the finished-job retention when Config.JobTTL is 0.
const DefaultJobTTL = time.Hour

// Server runs submitted jobs one goroutine apiece on a shared trial
// engine; the engine's worker pool bounds total trial concurrency and
// MaxInFlight bounds accepted jobs, so neither CPU nor memory grows with
// the submission rate.
type Server struct {
	eng         *runner.Engine
	maxInFlight int
	ttl         time.Duration
	now         func() time.Time // injectable for eviction tests
	log         *slog.Logger
	reg         *obs.Registry
	coord       *dist.Coordinator // nil unless started with -coordinator
	tracer      *trace.Tracer     // nil = tracing off
	jobStore    *store.WAL        // nil = memory-only job table
	storeScheme string            // blob-store scheme label for the store field
	keys        *Keyring          // nil = auth off

	// Registry-backed instrumentation. Event counters are bumped where the
	// event happens; table-derived gauges (jobs by status, table size,
	// in-flight count) are refreshed by an OnGather hook at exposition
	// time, so /metrics and the job table can never disagree.
	dedupHits    *obs.Counter
	rejected     *obs.Counter
	evicted      *obs.Counter
	jobsInflight *obs.Gauge
	jobsTotal    *obs.Gauge
	jobsByStatus *obs.GaugeVec
	httpReqs     *obs.CounterVec
	httpDur      *obs.HistogramVec
	httpInflight *obs.Gauge

	mu       sync.Mutex
	jobs     map[string]*entry
	inFlight int  // jobs queued or running right now
	draining bool // shutdown started; no new jobs
	wg       sync.WaitGroup
}

// NewServer wires the handlers onto a fresh mux. Every route is wrapped in
// metrics+logging middleware; /metrics serves the engine's registry, which
// the server's own job and HTTP series are registered on.
func NewServer(eng *runner.Engine, cfg Config) (*Server, *http.ServeMux) {
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.JobTTL == 0 {
		cfg.JobTTL = DefaultJobTTL
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.StoreScheme == "" {
		cfg.StoreScheme = "mem"
	}
	reg := eng.Registry()
	s := &Server{
		eng:         eng,
		maxInFlight: cfg.MaxInFlight,
		ttl:         cfg.JobTTL,
		now:         time.Now,
		log:         cfg.Logger,
		reg:         reg,
		coord:       cfg.Coordinator,
		tracer:      cfg.Tracer,
		jobStore:    cfg.Jobs,
		storeScheme: cfg.StoreScheme,
		keys:        cfg.Keys,
		jobs:        make(map[string]*entry),

		dedupHits:    reg.Counter("snd_job_dedup_hits_total", "Resubmissions answered from the job table."),
		rejected:     reg.Counter("snd_jobs_rejected_total", "Submissions bounced by the admission cap."),
		evicted:      reg.Counter("snd_jobs_evicted_total", "Finished jobs dropped by the TTL."),
		jobsInflight: reg.Gauge("snd_jobs_inflight", "Jobs queued or running."),
		jobsTotal:    reg.Gauge("snd_jobs_total", "Jobs currently in the table."),
		jobsByStatus: reg.GaugeVec("snd_jobs", "Jobs in the table by status.", "status"),
		httpReqs:     reg.CounterVec("snd_http_requests_total", "HTTP requests served.", "method", "path", "code", "client"),
		httpDur:      reg.HistogramVec("snd_http_request_duration_seconds", "HTTP request latency.", nil, "method", "path"),
		httpInflight: reg.Gauge("snd_http_requests_inflight", "HTTP requests being served right now."),
	}
	reg.OnGather(s.refreshJobGauges)

	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(route, h))
	}
	// The API is versioned under /v1 so response-shape changes (like the
	// typed error envelope) can ship behind a new prefix without breaking
	// deployed clients mid-flight.
	// Writes on /v1/jobs* go through the keyring (a no-op wrapper when no
	// -apikeys file is loaded); reads stay open.
	handle("POST /v1/jobs", "/v1/jobs", s.requireAuth(s.submit))
	handle("GET /v1/jobs", "/v1/jobs", s.list)
	handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.get)
	handle("DELETE /v1/jobs/{id}", "/v1/jobs/{id}", s.requireAuth(s.cancelJob))
	handle("GET /v1/metrics", "/v1/metrics", s.reg.Handler().ServeHTTP)
	handle("GET /v1/experiments", "/v1/experiments", s.catalog)
	handle("GET /v1/debug/traces", "/v1/debug/traces", s.debugTraces)
	s.mountDist(handle)
	if cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, mux
}

// refreshJobGauges recomputes the table-derived gauges; the registry calls
// it before every exposition.
func (s *Server) refreshJobGauges() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictExpiredLocked()
	byStatus := map[string]int64{}
	for _, job := range s.jobs {
		byStatus[job.Status]++
	}
	s.jobsTotal.Set(int64(len(s.jobs)))
	s.jobsInflight.Set(int64(s.inFlight))
	for _, status := range []string{client.StatusQueued, client.StatusRunning, client.StatusDone, client.StatusFailed, client.StatusCancelled} {
		s.jobsByStatus.With(status).Set(byStatus[status])
	}
}

// statusWriter captures the response code for middleware and carries the
// request's root span so deeper layers (writeError's trace_id, submit's
// job.run parent) can reach it without signature changes.
type statusWriter struct {
	http.ResponseWriter
	code int
	span *trace.Span // nil when tracing is off
	// client is the authenticated key's name, set by requireAuth before the
	// handler runs so instrument can attribute the request per tenant.
	client string
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// spanOf recovers the request span from a handler's ResponseWriter.
func spanOf(w http.ResponseWriter) *trace.Span {
	if sw, ok := w.(*statusWriter); ok {
		return sw.span
	}
	return nil
}

// instrument wraps a handler with request counting (by method, route
// pattern, and status class), a latency histogram, an in-flight gauge, one
// structured log line per request, and — when tracing is on — a root span
// per request. A valid traceparent request header makes the span a child of
// the caller's trace; a malformed one silently degrades to a fresh root
// (never an error). The trace ID is echoed in X-Trace-Id and traceparent
// response headers so clients can fetch the trace from /v1/debug/traces.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.httpInflight.Inc()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if s.tracer != nil {
			span := s.tracer.StartRemote("http "+route, r.Header.Get(trace.Header))
			span.SetAttr("method", r.Method)
			span.SetAttr("path", r.URL.Path)
			span.SetAttr("route", route)
			// Response headers must be set before the handler writes.
			w.Header().Set("X-Trace-Id", span.TraceID())
			w.Header().Set(trace.Header, span.Traceparent())
			sw.span = span
		}
		h(sw, r)
		s.httpInflight.Dec()
		elapsed := time.Since(start)
		class := fmt.Sprintf("%dxx", sw.code/100)
		s.httpReqs.With(r.Method, route, class, sw.client).Inc()
		s.httpDur.With(r.Method, route).Observe(elapsed.Seconds())
		sw.span.SetAttr("status", fmt.Sprint(sw.code))
		sw.span.End()
		s.log.Info("http request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", sw.code),
			slog.Duration("duration", elapsed))
	})
}

// jobID content-addresses a submission. The raw params are compacted so
// whitespace differences hash identically. The timeout is execution
// metadata, not job identity, and is deliberately excluded.
func jobID(experiment string, params json.RawMessage) string {
	canonical := []byte("null")
	if len(params) > 0 {
		var v any
		if err := json.Unmarshal(params, &v); err == nil {
			if b, err := json.Marshal(v); err == nil {
				canonical = b
			}
		}
	}
	sum := sha256.Sum256(append([]byte(experiment+"\x00"), canonical...))
	return hex.EncodeToString(sum[:8])
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req client.SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, errBadBody, "", "bad request body: %v", err)
		return
	}
	e, ok := exp.Lookup(req.Experiment)
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownExperiment, "experiment",
			"unknown experiment %q (see GET /v1/experiments)", req.Experiment)
		return
	}
	// Decode params at submission through the registry's strict decoder, so
	// a typoed or mistyped field is a 400 naming the field — not a job that
	// is accepted and then fails.
	bound, err := e.Decode(req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadParams, fieldFromDecodeError(err), "%v", err)
		return
	}
	if req.Timeout != "" {
		if d, err := time.ParseDuration(req.Timeout); err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, errBadTimeout, "timeout",
				"bad timeout %q: want a positive Go duration like \"90s\"", req.Timeout)
			return
		}
	}

	id := jobID(req.Experiment, req.Params)
	s.mu.Lock()
	s.evictExpiredLocked()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errShuttingDown, "", "server is shutting down")
		return
	}
	if job, ok := s.jobs[id]; ok {
		// A failed or cancelled job must not be memoized forever: evict
		// the stale entry and fall through to a fresh run.
		if job.Status == client.StatusFailed || job.Status == client.StatusCancelled {
			delete(s.jobs, id)
			s.unpersistLocked(id)
		} else {
			s.dedupHits.Inc()
			snapshot := snapshotLocked(job)
			s.mu.Unlock()
			s.log.Info("job resubmitted, answered from table", obs.JobAttrs(id, req.Experiment),
				slog.String("status", snapshot.Status))
			writeJSON(w, http.StatusOK, snapshot)
			return
		}
	}
	if s.inFlight >= s.maxInFlight {
		s.rejected.Inc()
		s.mu.Unlock()
		s.log.Warn("job rejected by admission cap", obs.JobAttrs(id, req.Experiment),
			slog.Int("cap", s.maxInFlight))
		writeError(w, http.StatusTooManyRequests, errTooManyJobs, "",
			"%d jobs already in flight (cap %d); retry later", s.maxInFlight, s.maxInFlight)
		return
	}
	job := &entry{Job: client.Job{
		ID:         id,
		Experiment: req.Experiment,
		Params:     req.Params,
		Timeout:    req.Timeout,
		Status:     client.StatusQueued,
		Created:    s.now().UTC(),
		Store:      s.storeScheme,
	}, bound: bound}
	// The job.run span is a child of the submitting request's span, so the
	// 202 response already carries the trace ID.
	s.startLocked(job, spanOf(w).StartChild("job.run"))
	// Snapshot before unlocking: execute mutates job as soon as it starts.
	snapshot := snapshotLocked(job)
	s.mu.Unlock()

	s.log.Info("job submitted", obs.JobAttrs(id, req.Experiment),
		slog.String("timeout", req.Timeout))
	writeJSON(w, http.StatusAccepted, snapshot)
}

// startLocked admits a queued job to the table and launches it. It
// builds the job's context (bounded by job.Timeout when that parses), its
// progress tracker and its job.run span, counts it in flight, writes its
// first WAL record and starts execute. jspan is the job.run span the
// caller minted; nil with tracing on gets a fresh root. The job_id
// attribute is what GET /v1/debug/traces?job={id} keys on. Callers hold
// s.mu and have set job.bound.
func (s *Server) startLocked(job *entry, jspan *trace.Span) {
	var ctx context.Context
	var cancel context.CancelFunc
	if d, err := time.ParseDuration(job.Timeout); err == nil && d > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), d)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	if jspan == nil {
		jspan = s.tracer.StartRoot("job.run")
	}
	jspan.SetAttr("job_id", job.ID)
	jspan.SetAttr("experiment", job.Experiment)
	job.span = jspan
	job.TraceID = jspan.TraceID()
	job.cancel = cancel
	job.progress = &runner.Progress{}
	s.jobs[job.ID] = job
	s.inFlight++
	s.wg.Add(1)
	s.persistLocked(job)
	go s.execute(ctx, cancel, job)
}

// snapshotLocked copies a job for serialization, resolving its live
// progress tracker into a point-in-time snapshot. Callers hold s.mu.
func snapshotLocked(job *entry) client.Job {
	out := job.Job
	if job.progress != nil {
		ps := job.progress.Snapshot()
		out.Progress = &ps
	}
	return out
}

func (s *Server) execute(ctx context.Context, cancel context.CancelFunc, job *entry) {
	defer s.wg.Done()
	defer cancel()

	started := s.now().UTC()
	s.mu.Lock()
	job.Status = client.StatusRunning
	job.Started = &started
	bound := job.bound
	s.persistLocked(job)
	s.mu.Unlock()
	s.log.Info("job started", obs.JobAttrs(job.ID, job.Experiment))

	// Sweeps run under the job's progress tracker, so GET /v1/jobs/{id} can
	// report live trial counts while the experiment executes — and under
	// the job's span and the server tracer, so runner and dist spans join
	// the job's trace.
	ctx = runner.WithProgress(ctx, job.progress)
	ctx = trace.WithTracer(ctx, s.tracer)
	ctx = trace.ContextWithSpan(ctx, job.span)
	result, err := s.run(ctx, job, bound)
	var raw json.RawMessage
	if err == nil && result != nil {
		// Encoded once, here: GETs, listings and the job log all serve
		// these bytes.
		if raw, err = json.Marshal(result); err != nil {
			err = fmt.Errorf("encode result: %w", err)
		}
	}

	now := s.now().UTC()
	s.mu.Lock()
	s.inFlight--
	job.Finished = &now
	job.cancel = nil
	switch {
	case err == nil:
		job.Status = client.StatusDone
		job.Result = raw
	case errors.Is(err, context.DeadlineExceeded):
		job.Status = client.StatusFailed
		job.Error = fmt.Sprintf("deadline exceeded: job ran past its %s timeout", job.Timeout)
	case errors.Is(err, context.Canceled):
		job.Status = client.StatusCancelled
		job.Error = "cancelled before completion"
	default:
		job.Status = client.StatusFailed
		job.Error = err.Error()
	}
	status := job.Status
	jspan, jerr := job.span, job.Error
	s.persistLocked(job)
	s.mu.Unlock()

	jspan.SetAttr("status", status)
	if jerr != "" {
		jspan.SetError(errors.New(jerr))
	}
	jspan.End()

	ps := job.progress.Snapshot()
	s.log.Info("job finished", obs.JobAttrs(job.ID, job.Experiment),
		slog.String("status", status),
		slog.Duration("duration", now.Sub(started)),
		slog.Int64("trials_done", ps.Done),
		slog.Int64("trials_total", ps.Total),
		slog.Int64("trials_dropped", ps.Dropped))
}

// run executes a bound experiment on the shared engine. The runner
// recovers panicking trials; a panic anywhere else on the job's goroutine
// (a plan's set-up, a Reduce) becomes the job's error here instead of
// ending the server.
func (s *Server) run(ctx context.Context, job *entry, bound exp.Experiment) (result exp.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("job panicked: %v", v)
			s.log.Error("job panicked", obs.JobAttrs(job.ID, job.Experiment),
				slog.Any("panic", v), slog.String("stack", string(debug.Stack())))
		}
	}()
	return bound.Run(ctx, s.eng)
}

// cancelJob handles DELETE /v1/jobs/{id}: it cancels the job's context,
// which makes the engine stop scheduling its trials; the job transitions
// to cancelled as soon as its in-flight trials finish.
func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, errNotFound, "", "no such job")
		return
	}
	if job.Terminal() {
		id, status := job.ID, job.Status
		s.mu.Unlock()
		writeError(w, http.StatusConflict, errJobFinished, "",
			"job %s already %s; nothing to cancel", id, status)
		return
	}
	cancel := job.cancel
	snapshot := snapshotLocked(job)
	s.mu.Unlock()
	cancel()
	s.log.Info("job cancellation requested", obs.JobAttrs(snapshot.ID, snapshot.Experiment))
	writeJSON(w, http.StatusAccepted, snapshot)
}

// Shutdown stops admitting jobs and waits for in-flight jobs to drain.
// If ctx expires first, every unfinished job is cancelled and Shutdown
// still waits for their cooperative exit (prompt: the engine stops
// scheduling trials on cancellation) before returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.CancelAll()
		<-done
		return ctx.Err()
	}
}

// CancelAll cancels every job that has not finished yet.
func (s *Server) CancelAll() {
	s.mu.Lock()
	var cancels []context.CancelFunc
	for _, job := range s.jobs {
		if job.cancel != nil && !job.Terminal() {
			cancels = append(cancels, job.cancel)
		}
	}
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

// evictExpiredLocked drops finished jobs older than the TTL. Eviction is
// lazy — it runs on submissions and listings — so an idle table holds its
// last results until the next request touches it.
func (s *Server) evictExpiredLocked() {
	if s.ttl < 0 {
		return
	}
	cutoff := s.now().Add(-s.ttl)
	for id, job := range s.jobs {
		if job.Finished != nil && job.Finished.Before(cutoff) {
			delete(s.jobs, id)
			s.unpersistLocked(id)
			s.evicted.Inc()
		}
	}
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.evictExpiredLocked()
	job, ok := s.jobs[r.PathValue("id")]
	var snapshot client.Job
	if ok {
		snapshot = snapshotLocked(job)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errNotFound, "", "no such job")
		return
	}
	writeJSON(w, http.StatusOK, snapshot)
}

// DefaultPageLimit and MaxPageLimit bound GET /v1/jobs pages.
const (
	DefaultPageLimit = 100
	MaxPageLimit     = 1000
)

// encodeCursor/decodeCursor translate the stable listing position —
// (created_at, id) of the last job returned — to an opaque token. The
// ordering key is total (ID breaks creation-time ties), so pages never
// skip or duplicate a job even as new jobs land between requests.
func encodeCursor(j client.Job) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(fmt.Sprintf("%d:%s", j.Created.UnixNano(), j.ID)))
}

func decodeCursor(s string) (nano int64, id string, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, "", err
	}
	ns, id, ok := strings.Cut(string(raw), ":")
	if !ok {
		return 0, "", fmt.Errorf("malformed cursor")
	}
	nano, err = strconv.ParseInt(ns, 10, 64)
	return nano, id, err
}

// list serves GET /v1/jobs: creation-ordered, cursor-paginated
// (?limit=, ?cursor=), filterable by ?status= and ?exp=, as a
// client.JobList. NextCursor, when present, is an opaque token: pass it
// back as ?cursor= to fetch the next page; its absence means the listing
// is complete. Results are elided from listings; fetch GET /v1/jobs/{id}
// for a job's result.
func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := DefaultPageLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, errBadQuery, "limit",
				"bad limit %q: want a positive integer", raw)
			return
		}
		limit = min(n, MaxPageLimit)
	}
	status := q.Get("status")
	switch status {
	case "", client.StatusQueued, client.StatusRunning, client.StatusDone, client.StatusFailed, client.StatusCancelled:
	default:
		writeError(w, http.StatusBadRequest, errBadQuery, "status",
			"bad status %q: want one of queued, running, done, failed, cancelled", status)
		return
	}
	experiment := q.Get("exp")
	var afterNano int64
	var afterID string
	usingCursor := false
	if raw := q.Get("cursor"); raw != "" {
		var err error
		afterNano, afterID, err = decodeCursor(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, errBadQuery, "cursor",
				"bad cursor: pass the next_cursor token from a previous page, unmodified")
			return
		}
		usingCursor = true
	}

	s.mu.Lock()
	s.evictExpiredLocked()
	all := make([]client.Job, 0, len(s.jobs))
	for _, job := range s.jobs {
		if status != "" && job.Status != status {
			continue
		}
		if experiment != "" && job.Experiment != experiment {
			continue
		}
		j := snapshotLocked(job)
		j.Result = nil // keep the listing small; fetch /v1/jobs/{id} for results
		all = append(all, j)
	}
	s.mu.Unlock()

	sort.Slice(all, func(i, j int) bool {
		if !all[i].Created.Equal(all[j].Created) {
			return all[i].Created.Before(all[j].Created)
		}
		return all[i].ID < all[j].ID
	})
	if usingCursor {
		start := sort.Search(len(all), func(i int) bool {
			nano := all[i].Created.UnixNano()
			return nano > afterNano || (nano == afterNano && all[i].ID > afterID)
		})
		all = all[start:]
	}
	page := client.JobList{Jobs: all}
	if len(all) > limit {
		page.Jobs = all[:limit]
		page.NextCursor = encodeCursor(all[limit-1])
	}
	writeJSON(w, http.StatusOK, page)
}

// catalog serves the full experiment catalog: every registered name with
// its description, reflection-derived params schema, and defaults.
func (s *Server) catalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, exp.Catalog())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Error codes of the client.APIError envelope, each with the HTTP status
// its writeError calls pass. Clients switch on these, never on Message
// text.
const (
	errBadBody           = "bad_body"           // 400: request body is not valid JSON for the submit shape
	errBadParams         = "bad_params"         // 400: params rejected by the experiment's strict decoder
	errBadTimeout        = "bad_timeout"        // 400: timeout is not a positive Go duration
	errUnknownExperiment = "unknown_experiment" // 404: no such experiment in the registry
	errNotFound          = "not_found"          // 404: no such job
	errJobFinished       = "job_finished"       // 409: cancelling a job that already reached a terminal status
	errTooManyJobs       = "too_many_jobs"      // 429: admission cap reached
	errShuttingDown      = "shutting_down"      // 503: server is draining
	errTracingDisabled   = "tracing_disabled"   // 404: /v1/debug/traces on a server started without tracing
	errBadQuery          = "bad_query"          // 400: malformed query parameter (field names it)
	errUnauthorized      = "unauthorized"       // 401: /v1/jobs* write without a valid Authorization: Bearer key
	errRateLimited       = "rate_limited"       // 429: the key's token bucket is empty; honor Retry-After

	// The /v1/dist/* endpoints add the protocol codes defined, with their
	// statuses, in internal/dist (same envelope, same table in DESIGN.md
	// §9): unknown_worker (404), unknown_lease (409), job_cancelled (409),
	// coordinator_disabled (404).
)

func writeError(w http.ResponseWriter, status int, code, field, format string, args ...any) {
	writeAPIError(w, &client.APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...), Field: field})
}

// writeAPIError answers e as the {"error": {...}} envelope under its
// Status, naming the failing request's trace when the server traces.
func writeAPIError(w http.ResponseWriter, e *client.APIError) {
	e.TraceID = spanOf(w).TraceID()
	writeJSON(w, e.Status, map[string]*client.APIError{"error": e})
}

// decodeFieldRe matches the two field-bearing shapes of encoding/json
// decode errors: `json: unknown field "Sises"` and `json: cannot unmarshal
// ... into Go struct field OverheadParams.Sizes of type ...`.
var decodeFieldRe = regexp.MustCompile(`unknown field "([^"]+)"|struct field [^ .]*\.([^ ]+)`)

// fieldFromDecodeError extracts the offending field name from a params
// decode error, or "" when the error does not identify one.
func fieldFromDecodeError(err error) string {
	m := decodeFieldRe.FindStringSubmatch(err.Error())
	if m == nil {
		return ""
	}
	if m[1] != "" {
		return m[1]
	}
	return m[2]
}
