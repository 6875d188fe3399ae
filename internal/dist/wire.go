// Package dist distributes sweep execution across processes. The paper's
// evaluation is embarrassingly parallel — every figure is a (point, trial)
// grid, and every trial is a pure function of its indices — so spreading a
// sweep over a fleet is purely a scheduling problem: results are
// bit-identical wherever a cell runs.
//
// The Coordinator implements runner.Backend. It partitions each sweep's
// cell grid into batches and hands them out through a lease protocol:
// workers register with a capabilities handshake, claim batches with
// renewable TTL leases, and post per-cell results back. Those three calls
// are the whole conversation: each one refreshes the worker's liveness,
// the lease answer carries the coordinator's drain signal, and a renewal
// or results post for a cancelled job answers job_cancelled (protocol
// errors are *client.APIError, the /v1 error envelope). Expired or failed
// leases are re-queued with capped remote attempts, after which a batch is
// pinned local-only — combined with the in-process loopback workers that
// drain the same lease table, a killed worker can delay a sweep but never
// lose it. cmd/sndserve hosts the coordinator behind /v1/dist/*;
// cmd/sndworker is the fleet binary, executing leased cells through the
// experiment registry (exp.RunCells) with its own trial cache.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"snd/client"
	"snd/internal/obs/trace"
	"snd/internal/runner"
)

// Protocol endpoints, mounted by cmd/sndserve when -coordinator is set.
const (
	PathRegister = "/v1/dist/register"
	PathLease    = "/v1/dist/lease"
	PathRenew    = "/v1/dist/renew"
	PathResults  = "/v1/dist/results"
	PathStatus   = "/v1/dist/status"
)

// Protocol error codes (table in DESIGN.md §9). The coordinator returns
// them as *client.APIError, the /v1 error envelope, with the HTTP status
// that codeStatus assigns; cmd/sndserve serves that error as it is, and
// Client hands the decoded envelope back, so workers switch on the same
// Code whether the coordinator is in process or across the network.
const (
	// CodeUnknownWorker rejects calls from an unregistered (or expired)
	// worker ID; the worker must re-register.
	CodeUnknownWorker = "unknown_worker"
	// CodeUnknownLease rejects renewals/results for a lease the
	// coordinator no longer tracks for this worker — typically it expired
	// and the batch was re-queued. The worker must abandon the batch.
	CodeUnknownLease = "unknown_lease"
	// CodeJobCancelled rejects renewals/results for a lease whose sweep
	// was revoked — its job was cancelled (DELETE /v1/jobs/{id}) or ended.
	CodeJobCancelled = "job_cancelled"
	// CodeCoordinatorDisabled answers /v1/dist/* on a server started
	// without -coordinator.
	CodeCoordinatorDisabled = "coordinator_disabled"
)

// codeStatus is each protocol code's HTTP status.
var codeStatus = map[string]int{
	CodeUnknownWorker:       http.StatusNotFound, // re-register
	CodeUnknownLease:        http.StatusConflict, // lease expired or reassigned; abandon the batch
	CodeJobCancelled:        http.StatusConflict, // sweep revoked; abandon the batch
	CodeCoordinatorDisabled: http.StatusNotFound,
}

// Errf builds the protocol error for code.
func Errf(code, format string, args ...any) *client.APIError {
	return &client.APIError{Status: codeStatus[code], Code: code, Message: fmt.Sprintf(format, args...)}
}

// isCode reports whether err is a protocol error with code.
func isCode(err error, code string) bool {
	var e *client.APIError
	return errors.As(err, &e) && e.Code == code
}

// RegisterRequest is a worker's handshake: a display name and the
// experiments its registry can execute (its capabilities — the coordinator
// never leases a worker a sweep it cannot decode).
type RegisterRequest struct {
	Name        string   `json:"name"`
	Experiments []string `json:"experiments"`
}

// RegisterResponse assigns the worker its ID and the protocol cadence.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTL is the lease duration as a Go duration string; workers must
	// renew well inside it (RenewEvery is the suggested cadence).
	LeaseTTL   string `json:"lease_ttl"`
	RenewEvery string `json:"renew_every"`
}

// LeaseRequest claims the next available batch for a registered worker.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseResponse carries at most one batch. A nil batch means no work is
// available right now (nothing queued, or the coordinator is draining —
// the Draining flag distinguishes the two so workers can back off).
type LeaseResponse struct {
	Batch    *Batch `json:"batch,omitempty"`
	Draining bool   `json:"draining,omitempty"`
}

// Batch is one leased unit of work: a contiguous slice of a sweep's
// (point, trial) grid plus everything needed to re-derive the trial
// function — the registry experiment name and the sweep's canonical params
// document, integrity-checked by the content-addressed SweepID.
type Batch struct {
	ID         string          `json:"id"`
	SweepID    string          `json:"sweep_id"`
	Experiment string          `json:"experiment"`
	Params     json.RawMessage `json:"params"`
	Cells      []runner.Cell   `json:"cells"`
	// LeaseTTL echoes the coordinator's lease duration for this grant.
	LeaseTTL string `json:"lease_ttl"`
	// Attempt counts remote grants of this batch, 1-based; attempts beyond
	// the coordinator's cap pin the batch to loopback execution.
	Attempt int `json:"attempt"`
	// Traceparent propagates the sweep's trace context (W3C wire format) so
	// the worker's batch and trial spans join the coordinator's trace.
	// Empty when the sweep runs untraced.
	Traceparent string `json:"traceparent,omitempty"`
}

// RenewRequest extends a held lease.
type RenewRequest struct {
	WorkerID string `json:"worker_id"`
	BatchID  string `json:"batch_id"`
}

// RenewResponse confirms the extension.
type RenewResponse struct {
	LeaseTTL string `json:"lease_ttl"`
}

// ResultsRequest posts a batch's per-cell results. Partial posts are
// allowed (the lease completes once every cell has arrived), results are
// accepted idempotently (duplicates are counted and discarded), and a
// non-empty Failed abandons the batch instead: the coordinator re-queues
// it immediately rather than waiting for lease expiry.
type ResultsRequest struct {
	WorkerID string              `json:"worker_id"`
	BatchID  string              `json:"batch_id"`
	Results  []runner.CellSample `json:"results,omitempty"`
	Failed   string              `json:"failed,omitempty"`
	// Spans ships the worker-side span subtree of this batch (batch span,
	// runner.cells span, sampled trial spans) back to the coordinator's flight
	// recorder, which ingests them idempotently — a duplicate post after a
	// lost response does not duplicate spans.
	Spans []trace.SpanData `json:"spans,omitempty"`
}

// ResultsResponse reports the idempotent-accept accounting.
type ResultsResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	// Done reports whether the batch is fully accounted for (lease
	// released).
	Done bool `json:"done"`
}

// Status is the observability snapshot served by GET /v1/dist/status.
type Status struct {
	Draining     bool           `json:"draining"`
	ActiveSweeps int            `json:"active_sweeps"`
	Pending      int            `json:"pending_batches"`
	Leased       int            `json:"leased_batches"`
	Workers      []WorkerStatus `json:"workers"`
	// RecentBatches attributes recently finished batches (newest first,
	// bounded) — who completed each one and after how many remote grants,
	// the record a requeue would otherwise lose.
	RecentBatches []BatchRecord `json:"recent_batches,omitempty"`
}

// WorkerStatus is one registered worker's view in Status.
type WorkerStatus struct {
	ID             string `json:"id"`
	Name           string `json:"name"`
	LastSeenAgo    string `json:"last_seen_ago"`
	BatchesDone    int64  `json:"batches_done"`
	CellsDelivered int64  `json:"cells_delivered"`
	// BatchesFailed counts batches this worker reported failed, and
	// LeasesExpired counts leases reclaimed from it by TTL — per-worker
	// failure attribution for the fleet operator.
	BatchesFailed int64 `json:"batches_failed"`
	LeasesExpired int64 `json:"leases_expired"`
}

// BatchRecord is one completed batch's attribution in Status.
type BatchRecord struct {
	ID      string `json:"id"`
	SweepID string `json:"sweep_id"`
	// Worker is the completing worker's ID, or "local" for loopback
	// execution.
	Worker string `json:"worker"`
	// Attempts is how many times the batch was granted remotely before it
	// completed; >1 means it survived an expiry, failure, or revocation.
	Attempts    int    `json:"attempts"`
	Cells       int    `json:"cells"`
	FinishedAgo string `json:"finished_ago"`
}
