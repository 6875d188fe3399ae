package dist

import (
	"context"
	"net/http"

	"snd/client"
)

// Client speaks the /v1/dist/* protocol to a coordinator, riding the
// shared snd/client transport (same traceparent propagation, same typed
// error-envelope decoding as the jobs API). Typed protocol failures come
// back as the *client.APIError the coordinator returned, so a worker
// switches on CodeJobCancelled vs CodeUnknownLease exactly like the
// in-process coordinator's callers do.
type Client struct {
	api *client.Client
}

// NewClient targets a coordinator at base (e.g. "http://host:8080"). A nil
// httpClient uses a 30s-timeout default.
func NewClient(base string, httpClient *http.Client) *Client {
	api := client.New(base, "")
	if httpClient != nil {
		api.HTTPClient = httpClient
	}
	return &Client{api: api}
}

// Register performs the capability handshake.
func (c *Client) Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := c.api.Do(ctx, http.MethodPost, PathRegister, req, &resp)
	return resp, err
}

// Lease claims the next available batch (nil Batch when none).
func (c *Client) Lease(ctx context.Context, workerID string) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.api.Do(ctx, http.MethodPost, PathLease, LeaseRequest{WorkerID: workerID}, &resp)
	return resp, err
}

// Renew extends a held lease.
func (c *Client) Renew(ctx context.Context, workerID, batchID string) (RenewResponse, error) {
	var resp RenewResponse
	err := c.api.Do(ctx, http.MethodPost, PathRenew, RenewRequest{WorkerID: workerID, BatchID: batchID}, &resp)
	return resp, err
}

// Report posts batch results (or a failure).
func (c *Client) Report(ctx context.Context, req ResultsRequest) (ResultsResponse, error) {
	var resp ResultsResponse
	err := c.api.Do(ctx, http.MethodPost, PathResults, req, &resp)
	return resp, err
}
