package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snd/client"
	"snd/internal/dist"
	"snd/internal/exp"
	"snd/internal/obs"
	"snd/internal/obs/trace"
	"snd/internal/runner"
	"snd/internal/store"
)

// newTracedServer is newTestServer with the flight recorder on.
func newTracedServer(t *testing.T, topts trace.Options) (*Server, *trace.Tracer, *httptest.Server) {
	t.Helper()
	tr := trace.New(topts)
	eng := runner.New(runner.Options{Workers: 4, Cache: store.NewMemStore()})
	s, mux := NewServer(eng, Config{Tracer: tr})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, tr, ts
}

// TestMiddlewareRootSpanAndRouteLabel: every /v1 request gets a root span
// named by its route pattern (not the raw path), with the trace ID echoed
// in the X-Trace-Id and traceparent response headers.
func TestMiddlewareRootSpanAndRouteLabel(t *testing.T) {
	_, tr, ts := newTracedServer(t, trace.Options{})

	resp, err := http.Get(ts.URL + "/v1/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	tid := resp.Header.Get("X-Trace-Id")
	if tid == "" {
		t.Fatal("response missing X-Trace-Id header")
	}
	tp := resp.Header.Get("traceparent")
	if _, _, ok := trace.ParseTraceparent(tp); !ok {
		t.Fatalf("response traceparent %q does not parse", tp)
	}
	if !strings.Contains(tp, tid) {
		t.Errorf("traceparent %q does not carry the X-Trace-Id %q", tp, tid)
	}

	spans := tr.TraceSpans(tid)
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans for the request trace, want 1", len(spans))
	}
	root := spans[0]
	// The span is labeled by route pattern so traces aggregate across IDs.
	if root.Name != "http /v1/jobs/{id}" {
		t.Errorf("root span name = %q, want %q", root.Name, "http /v1/jobs/{id}")
	}
	if got := root.Attr("route"); got != "/v1/jobs/{id}" {
		t.Errorf("route attr = %q, want the pattern, not the raw path", got)
	}
	if got := root.Attr("path"); got != "/v1/jobs/no-such-job" {
		t.Errorf("path attr = %q", got)
	}
	if got := root.Attr("status"); got != "404" {
		t.Errorf("status attr = %q, want 404", got)
	}
}

// TestTraceparentRoundTrip: a request carrying a valid W3C traceparent
// joins the caller's trace — same trace ID in the response headers, and a
// submitted job's trace is the caller's trace.
func TestTraceparentRoundTrip(t *testing.T) {
	_, tr, ts := newTracedServer(t, trace.Options{})

	parent := tr.StartRoot("client.op")
	wantTrace := parent.TraceID()

	body := `{"experiment":"overhead","params":{"Sizes":[60],"Seed":3}}`
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, parent.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var job client.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	parent.End()

	if got := resp.Header.Get("X-Trace-Id"); got != wantTrace {
		t.Errorf("X-Trace-Id = %q, want the propagated trace %q", got, wantTrace)
	}
	if job.TraceID != wantTrace {
		t.Errorf("job trace_id = %q, want the propagated trace %q", job.TraceID, wantTrace)
	}
	waitDone(t, ts, job.ID)

	// The whole chain — client root, http span, job.run, runner.sweep —
	// lands in one trace.
	names := map[string]bool{}
	for _, sp := range tr.TraceSpans(wantTrace) {
		names[sp.Name] = true
	}
	for _, want := range []string{"client.op", "http /v1/jobs", "job.run", "runner.sweep"} {
		if !names[want] {
			t.Errorf("trace is missing span %q (have %v)", want, names)
		}
	}
}

// TestMalformedTraceparentFallsBack: a bad traceparent header must never
// surface as a client error — the request gets a fresh root trace.
func TestMalformedTraceparentFallsBack(t *testing.T) {
	_, tr, ts := newTracedServer(t, trace.Options{})

	for _, bad := range []string{
		"not-a-traceparent",
		"00-zzzz-0000000000000001-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
	} {
		req, _ := http.NewRequest("GET", ts.URL+"/v1/experiments", nil)
		req.Header.Set(trace.Header, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("traceparent %q: status %d, want 200 (malformed headers must not fail requests)", bad, resp.StatusCode)
		}
		tid := resp.Header.Get("X-Trace-Id")
		if tid == "" {
			t.Errorf("traceparent %q: no X-Trace-Id (want a fresh root trace)", bad)
			continue
		}
		if strings.Contains(bad, tid) {
			t.Errorf("traceparent %q: server adopted the malformed trace ID %q", bad, tid)
		}
		if len(tr.TraceSpans(tid)) != 1 {
			t.Errorf("traceparent %q: fresh root trace %q not recorded", bad, tid)
		}
	}
}

// TestErrorEnvelopeCarriesTraceID: 4xx envelopes name the request's trace.
func TestErrorEnvelopeCarriesTraceID(t *testing.T) {
	_, _, ts := newTracedServer(t, trace.Options{})

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error client.APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != errNotFound {
		t.Fatalf("error code = %q", env.Error.Code)
	}
	if env.Error.TraceID == "" {
		t.Fatal("error envelope has no trace_id")
	}
	if got := resp.Header.Get("X-Trace-Id"); got != env.Error.TraceID {
		t.Errorf("envelope trace_id %q != X-Trace-Id %q", env.Error.TraceID, got)
	}
}

// TestDebugTracesFlightRecorder: a finished job's trace is retrievable by
// job ID and by trace ID, and slow-trial exemplars point at real traces.
func TestDebugTracesFlightRecorder(t *testing.T) {
	_, _, ts := newTracedServer(t, trace.Options{TrialSampling: 1})

	job, code := postJob(t, ts, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if job.TraceID == "" {
		t.Fatal("accepted job has no trace_id")
	}
	waitDone(t, ts, job.ID)

	// By job ID.
	var byJob struct {
		JobID  string               `json:"job_id"`
		Traces []trace.TraceSummary `json:"traces"`
	}
	getJSON(t, ts, "/v1/debug/traces?job="+job.ID, &byJob)
	if len(byJob.Traces) != 1 || byJob.Traces[0].TraceID != job.TraceID {
		t.Fatalf("traces by job = %+v, want exactly the job's trace %s", byJob.Traces, job.TraceID)
	}
	if byJob.Traces[0].JobID != job.ID {
		t.Errorf("summary job_id = %q, want %q", byJob.Traces[0].JobID, job.ID)
	}

	// By trace ID: the span tree holds the full hierarchy.
	var byTrace struct {
		Spans []trace.SpanData `json:"spans"`
	}
	getJSON(t, ts, "/v1/debug/traces?trace="+job.TraceID, &byTrace)
	names := map[string]int{}
	for _, sp := range byTrace.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"http /v1/jobs", "job.run", "runner.sweep", "runner.point", "runner.trial"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (have %v)", want, names)
		}
	}

	// Default listing: summaries plus exemplars wired to the duration
	// histogram — the slowest trial's trace ID, which belongs to this job's
	// trace since it is the only traced work so far.
	var listing struct {
		Traces    []trace.TraceSummary `json:"traces"`
		Exemplars []exemplarEntry      `json:"exemplars"`
	}
	getJSON(t, ts, "/v1/debug/traces", &listing)
	if len(listing.Traces) == 0 {
		t.Error("default listing has no traces")
	}
	if len(listing.Exemplars) != 1 {
		t.Fatalf("exemplars = %+v, want one for the overhead experiment", listing.Exemplars)
	}
	ex := listing.Exemplars[0]
	if ex.Experiment != "overhead" || ex.Metric != "snd_trial_duration_seconds" {
		t.Errorf("exemplar = %+v", ex)
	}
	if ex.TraceID != job.TraceID {
		t.Errorf("exemplar trace %q, want the job's trace %q", ex.TraceID, job.TraceID)
	}

	// Query validation and miss behavior.
	if code := getStatus(t, ts, "/v1/debug/traces?limit=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", code)
	}
	if code := getStatus(t, ts, "/v1/debug/traces?trace=deadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", code)
	}
}

// TestDebugTracesDisabled: without a tracer the endpoint is a typed 404,
// distinguishable from "tracing on, nothing recorded".
func TestDebugTracesDisabled(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error client.APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != errTracingDisabled {
		t.Errorf("status %d code %q, want 404 %s", resp.StatusCode, env.Error.Code, errTracingDisabled)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

func getStatus(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// newTracedCoordinatorServer is newCoordinatorServer with a flight
// recorder attached.
func newTracedCoordinatorServer(t *testing.T, localWorkers int, ttl time.Duration) (*dist.Coordinator, *trace.Tracer, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	coord := dist.NewCoordinator(dist.Options{
		BatchSize:    4,
		LeaseTTL:     ttl,
		LocalWorkers: localWorkers,
		Registry:     reg,
	})
	eng := runner.New(runner.Options{
		Workers: 2, Cache: store.NewMemStore(), Registry: reg, Backend: coord,
	})
	tr := trace.New(trace.Options{})
	_, mux := NewServer(eng, Config{Coordinator: coord, Tracer: tr})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return coord, tr, ts
}

// startTracedWorker is startWorker with a per-process tracer, the way
// sndworker -tracebuf wires one: worker-side spans stage locally and ship
// with each results post.
func startTracedWorker(t *testing.T, ts *httptest.Server, name string, sampling int) {
	t.Helper()
	weng := runner.New(runner.Options{Workers: 2, Cache: store.NewMemStore()})
	wtr := trace.New(trace.Options{TrialSampling: sampling})
	w := dist.NewWorker(dist.NewClient(ts.URL, nil), dist.WorkerOptions{
		Name: name,
		Poll: 2 * time.Millisecond,
		Execute: func(ctx context.Context, b *dist.Batch) ([]runner.CellSample, error) {
			return exp.RunCells(ctx, weng, b.Experiment, b.Params, b.SweepID, b.Cells)
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	ctx = trace.WithTracer(ctx, wtr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// TestDistConnectedTraceAcrossFleet is the tentpole acceptance check: a
// sweep through the coordinator and two HTTP workers yields ONE connected
// trace — HTTP root → job.run → runner.sweep → worker.batch →
// runner.cells → trial spans — retrievable from /v1/debug/traces by job
// ID, with per-worker attribution in /v1/dist/status.
func TestDistConnectedTraceAcrossFleet(t *testing.T) {
	_, _, ts := newTracedCoordinatorServer(t, -1, 0)
	startTracedWorker(t, ts, "w1", 1)
	startTracedWorker(t, ts, "w2", 1)

	// SleepMs keeps each batch busy long enough that the idle worker's
	// 2 ms poll takes the next one; without it one worker can drain all
	// three batches before the other polls.
	job, code := postJob(t, ts, `{"experiment":"test-dist","params":{"Points":3,"Trials":4,"SleepMs":20,"Seed":41}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitDone(t, ts, job.ID)

	var byJob struct {
		Traces []trace.TraceSummary `json:"traces"`
	}
	getJSON(t, ts, "/v1/debug/traces?job="+job.ID, &byJob)
	if len(byJob.Traces) != 1 {
		t.Fatalf("traces by job = %+v, want exactly one connected trace", byJob.Traces)
	}
	if byJob.Traces[0].TraceID != job.TraceID {
		t.Fatalf("trace by job = %s, want the job's trace %s", byJob.Traces[0].TraceID, job.TraceID)
	}

	var byTrace struct {
		Spans []trace.SpanData `json:"spans"`
	}
	getJSON(t, ts, "/v1/debug/traces?trace="+job.TraceID, &byTrace)
	names := map[string]int{}
	workers := map[string]bool{}
	var sweep *trace.SpanData
	for i, sp := range byTrace.Spans {
		names[sp.Name]++
		if sp.Name == "worker.batch" {
			workers[sp.Attr("worker")] = true
		}
		if sp.Name == "runner.sweep" {
			sweep = &byTrace.Spans[i]
		}
	}
	// 3 points × 4 trials at batch size 4 = 3 batches, all remote.
	for span, want := range map[string]int{
		"http /v1/jobs": 1, "job.run": 1, "runner.sweep": 1,
		"worker.batch": 3, "runner.cells": 3,
	} {
		if names[span] != want {
			t.Errorf("%s spans = %d, want %d (have %v)", span, names[span], want, names)
		}
	}
	if names["runner.trial"] != 12 {
		t.Errorf("runner.trial spans = %d, want 12 (sampling 1, 12 cells)", names["runner.trial"])
	}
	if len(workers) != 2 {
		t.Errorf("worker.batch spans attribute %v, want both workers", workers)
	}
	if sweep == nil {
		t.Fatal("no runner.sweep span in trace")
	}
	events := map[string]int{}
	for _, ev := range sweep.Events {
		events[ev.Name]++
	}
	if events["lease_granted"] != 3 || events["batch_done"] != 3 {
		t.Errorf("sweep span events = %v, want 3 lease_granted + 3 batch_done", events)
	}

	// Per-worker attribution in /v1/dist/status.
	var st dist.Status
	getJSON(t, ts, "/v1/dist/status", &st)
	if len(st.RecentBatches) != 3 {
		t.Fatalf("recent_batches = %+v, want 3", st.RecentBatches)
	}
	for _, rec := range st.RecentBatches {
		if rec.Worker == "" || rec.Worker == "local" {
			t.Errorf("batch %s attributed to %q, want a fleet worker", rec.ID, rec.Worker)
		}
		if rec.Attempts < 1 || rec.Cells != 4 {
			t.Errorf("batch record = %+v", rec)
		}
	}
}

// TestDistRequeueEventChain: killing a worker mid-batch leaves a
// reconstructable record — the sweep span's event chain shows the lease
// expiring and the batch re-queued, and the re-executing worker's attempt
// count survives in both the worker.batch span and the status listing.
func TestDistRequeueEventChain(t *testing.T) {
	coord, _, ts := newTracedCoordinatorServer(t, -1, 300*time.Millisecond)

	victimCtx, kill := context.WithCancel(context.Background())
	victimEng := runner.New(runner.Options{Workers: 2})
	victim := dist.NewWorker(dist.NewClient(ts.URL, nil), dist.WorkerOptions{
		Name: "victim",
		Poll: 2 * time.Millisecond,
		Execute: func(ctx context.Context, b *dist.Batch) ([]runner.CellSample, error) {
			return exp.RunCells(ctx, victimEng, b.Experiment, b.Params, b.SweepID, b.Cells)
		},
	})
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		victim.Run(victimCtx)
	}()

	job, code := postJob(t, ts, `{"experiment":"test-dist","params":{"Points":4,"Trials":4,"SleepMs":20,"Seed":43}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.Status().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no lease granted before kill")
		}
		time.Sleep(2 * time.Millisecond)
	}
	kill()
	<-victimDone
	startTracedWorker(t, ts, "survivor", 0)
	waitDone(t, ts, job.ID)

	var byTrace struct {
		Spans []trace.SpanData `json:"spans"`
	}
	getJSON(t, ts, "/v1/debug/traces?trace="+job.TraceID, &byTrace)
	var sweep *trace.SpanData
	for i, sp := range byTrace.Spans {
		if sp.Name == "runner.sweep" {
			sweep = &byTrace.Spans[i]
		}
	}
	if sweep == nil {
		t.Fatal("no runner.sweep span in trace")
	}
	events := map[string]int{}
	for _, ev := range sweep.Events {
		events[ev.Name]++
	}
	if events["lease_expired"] == 0 || events["requeue"] == 0 {
		t.Fatalf("sweep events = %v, want the lease_expired → requeue chain of the killed worker", events)
	}

	var st dist.Status
	getJSON(t, ts, "/v1/dist/status", &st)
	retried := false
	for _, rec := range st.RecentBatches {
		if rec.Attempts > 1 {
			retried = true
		}
	}
	if !retried {
		t.Errorf("recent_batches = %+v, want a batch with attempts > 1", st.RecentBatches)
	}
	var expired int64
	for _, w := range st.Workers {
		expired += w.LeasesExpired
	}
	if expired == 0 {
		t.Errorf("workers = %+v, want the victim's expired lease attributed", st.Workers)
	}
}
