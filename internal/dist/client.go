package dist

import (
	"context"
	"errors"
	"net/http"
	"time"

	"snd/client"
)

// Client speaks the /v1/dist/* protocol to a coordinator, riding the
// shared snd/client transport (same traceparent propagation, same typed
// error-envelope decoding as the jobs API). Typed protocol failures come
// back as *Error (the /v1 error envelope's code survives the round trip),
// so a worker can switch on CodeJobCancelled vs CodeUnknownLease exactly
// like the in-process coordinator's callers do.
type Client struct {
	api *client.Client
}

// NewClient targets a coordinator at base (e.g. "http://host:8080"). A nil
// httpClient uses a 30s-timeout default.
func NewClient(base string, httpClient *http.Client) *Client {
	api := client.New(base, "")
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	api.HTTPClient = httpClient
	return &Client{api: api}
}

// post adapts the shared transport's *client.APIError into the protocol's
// *Error so existing callers keep their errors.As(&Error) switches.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	err := c.api.Do(ctx, http.MethodPost, path, in, out)
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Code != "" {
		return &Error{Code: apiErr.Code, Message: apiErr.Message}
	}
	return err
}

// Register performs the capability handshake.
func (c *Client) Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := c.post(ctx, PathRegister, req, &resp)
	return resp, err
}

// Lease claims the next available batch (nil Batch when none).
func (c *Client) Lease(ctx context.Context, workerID string) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.post(ctx, PathLease, LeaseRequest{WorkerID: workerID}, &resp)
	return resp, err
}

// Renew extends a held lease.
func (c *Client) Renew(ctx context.Context, workerID, batchID string) (RenewResponse, error) {
	var resp RenewResponse
	err := c.post(ctx, PathRenew, RenewRequest{WorkerID: workerID, BatchID: batchID}, &resp)
	return resp, err
}

// Report posts batch results (or a failure).
func (c *Client) Report(ctx context.Context, req ResultsRequest) (ResultsResponse, error) {
	var resp ResultsResponse
	err := c.post(ctx, PathResults, req, &resp)
	return resp, err
}
