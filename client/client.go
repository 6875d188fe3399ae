// Package client is the typed Go client for the sndserve /v1 API: job
// submission, retrieval, cursor-paginated listing, cancellation, and
// completion waiting, plus the generic transport (bearer auth, W3C
// traceparent propagation, typed error envelopes) that the internal
// dist-protocol client shares. Every 4xx/5xx becomes an *APIError whose
// Code field is the server's stable machine-matchable code, so callers
// switch on codes — never on message text — exactly as DESIGN.md §9
// prescribes.
//
// The package is also the one declaration of the /v1 wire vocabulary:
// Job, Progress, SubmitRequest, JobList, APIError and the Status
// constants are what sndserve serves, what its job log persists and what
// the internal dist protocol returns as errors.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"snd/internal/obs/trace"
)

// maxResponseBytes bounds how much of a response body is read (results
// for million-point sweeps are large, but not unbounded).
const maxResponseBytes = 64 << 20

// Client talks to one sndserve. The zero value is not usable; call New.
type Client struct {
	// HTTPClient is the underlying transport, a 30s-timeout default unless
	// replaced before the first request.
	HTTPClient *http.Client

	base string
	key  string
}

// New targets a server at base (e.g. "http://host:8080"). key is the
// bearer API key stamped on every request; empty means unauthenticated
// (fine against a server without -apikeys, 401 against one with).
func New(base, key string) *Client {
	return &Client{
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
		base:       strings.TrimRight(base, "/"),
		key:        key,
	}
}

// APIError is the typed /v1 error envelope, served as {"error": {...}},
// plus its HTTP status. Code is stable and machine-matchable (the table is
// in DESIGN.md §9); Message is human-readable and free to change; Field
// names the offending request field when one is identifiable; TraceID
// names the failing request's trace when the server traces. RetryAfter is
// non-zero on rate_limited responses that carried a Retry-After header.
type APIError struct {
	Status     int           `json:"-"`
	Code       string        `json:"code"`
	Message    string        `json:"message"`
	Field      string        `json:"field,omitempty"`
	TraceID    string        `json:"trace_id,omitempty"`
	RetryAfter time.Duration `json:"-"`
}

func (e *APIError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("%s (HTTP %d, field %s): %s", e.Code, e.Status, e.Field, e.Message)
	}
	return fmt.Sprintf("%s (HTTP %d): %s", e.Code, e.Status, e.Message)
}

// Do performs one API call: in (nil for bodyless requests) is sent as
// JSON, out (nil to discard) receives the decoded response. The caller's
// trace context, when present, is propagated via the traceparent header so
// server-side spans join the caller's trace. Error envelopes come back as
// *APIError; transport failures as wrapped errors.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode %s request: %w", path, err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	if s := trace.SpanFromContext(ctx); s != nil {
		req.Header.Set(trace.Header, s.Traceparent())
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return fmt.Errorf("client: %s %s: read response: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		var env struct {
			Error *APIError `json:"error"`
		}
		if json.Unmarshal(data, &env) == nil && env.Error != nil && env.Error.Code != "" {
			env.Error.Status = resp.StatusCode
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				env.Error.RetryAfter = time.Duration(secs) * time.Second
			}
			return env.Error
		}
		return fmt.Errorf("client: %s %s: HTTP %d: %s", method, path, resp.StatusCode, data[:min(len(data), 200)])
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: %s %s: decode response: %w", method, path, err)
	}
	return nil
}

// Job statuses. The lifecycle is
//
//	queued → running → done | failed | cancelled
//
// done jobs carry a result; failed jobs an error (including per-job
// deadline expiry); cancelled jobs were stopped by DELETE /v1/jobs/{id} or
// by server shutdown.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Job is the /v1 job resource — the same shape on submit responses, gets,
// and listings, and (without Store, Progress and TraceID, which only a
// live server knows) the record sndserve's job log persists. Result is raw
// JSON so callers control decoding (and can byte-compare results across
// runs).
type Job struct {
	ID         string          `json:"id"`
	Experiment string          `json:"experiment"`
	Params     json.RawMessage `json:"params,omitempty"`
	Timeout    string          `json:"timeout,omitempty"`
	Status     string          `json:"status"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Created    time.Time       `json:"created_at"`
	Started    *time.Time      `json:"started_at,omitempty"`
	Finished   *time.Time      `json:"finished_at,omitempty"`
	Store      string          `json:"store,omitempty"`
	Progress   *Progress       `json:"progress,omitempty"`
	TraceID    string          `json:"trace_id,omitempty"`
}

// Progress is a job's trial counts: live while it runs, the final tally
// once it is terminal.
type Progress struct {
	// Done counts cells completed (executed or served from cache).
	Done int64 `json:"done"`
	// Total counts cells scheduled so far. It grows as each sweep of the
	// job starts, so Done == Total only means "caught up", not
	// necessarily "finished", until the job itself reports terminal.
	Total int64 `json:"total"`
	// Dropped counts cells lost to the panic-retry budget.
	Dropped int64 `json:"dropped,omitempty"`
}

// Terminal reports whether the job has reached a final status.
func (j Job) Terminal() bool {
	return j.Status == StatusDone || j.Status == StatusFailed || j.Status == StatusCancelled
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Experiment string          `json:"experiment"`
	Params     json.RawMessage `json:"params,omitempty"`
	// Timeout is an optional per-job deadline as a Go duration string
	// (e.g. "90s"). An expired job is marked failed with a deadline error.
	Timeout string `json:"timeout,omitempty"`
}

// SubmitJob submits a job. Resubmitting identical params returns the
// existing (possibly already finished) job — submission is idempotent.
func (c *Client) SubmitJob(ctx context.Context, req SubmitRequest) (Job, error) {
	var job Job
	err := c.Do(ctx, http.MethodPost, "/v1/jobs", req, &job)
	return job, err
}

// GetJob fetches one job, result included once done.
func (c *Client) GetJob(ctx context.Context, id string) (Job, error) {
	var job Job
	err := c.Do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &job)
	return job, err
}

// CancelJob requests cooperative cancellation of a queued or running job.
func (c *Client) CancelJob(ctx context.Context, id string) (Job, error) {
	var job Job
	err := c.Do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &job)
	return job, err
}

// ListOptions filter and page GET /v1/jobs. Zero values mean "server
// default": no filters, first page, DefaultPageLimit-sized.
type ListOptions struct {
	Status     string // queued | running | done | failed | cancelled
	Experiment string
	Limit      int
	Cursor     string // next_cursor from the previous page
}

// JobList is one GET /v1/jobs page. A non-empty NextCursor means more
// pages; pass it back via ListOptions.Cursor.
type JobList struct {
	Jobs       []Job  `json:"jobs"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// ListJobs fetches one page of the job listing (results elided).
func (c *Client) ListJobs(ctx context.Context, opts ListOptions) (JobList, error) {
	q := url.Values{}
	if opts.Status != "" {
		q.Set("status", opts.Status)
	}
	if opts.Experiment != "" {
		q.Set("exp", opts.Experiment)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Cursor != "" {
		q.Set("cursor", opts.Cursor)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page JobList
	err := c.Do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// DefaultPollInterval is Wait's polling cadence when poll <= 0.
const DefaultPollInterval = 250 * time.Millisecond

// Wait polls until the job reaches a terminal status and returns it
// (inspect Job.Status/Job.Error — a failed job is a successful Wait).
// ctx bounds the wait; transport errors abort it.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (Job, error) {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		job, err := c.GetJob(ctx, id)
		if err != nil {
			return job, err
		}
		if job.Terminal() {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-t.C:
		}
	}
}
