// Package store holds the durable storage layer behind sndserve and the
// worker fleet: a minimal blob-store interface with URL-style factory
// (memory, local filesystem, S3-compatible over plain signed HTTP) for
// trial-result caching that dedups across processes and machines, and a
// crash-safe job store (append-only JSONL WAL with compaction) that lets
// sndserve reload its job table after a restart — including a SIGKILL —
// and resume interrupted sweeps. The job store persists the /v1 job
// resource itself (client.Job) without its live-only fields; it declares
// no job type of its own.
//
// The blob interface is exactly what the trial cache uses — Get and Put —
// so a backend is a screenful of code and the engine's cache semantics
// (best-effort, content-addressed, idempotent writes) hold everywhere.
// Backends are resolved by Open from a URL:
//
//	mem://                         process-local map (tests, default)
//	file:///var/cache/snd          one file per key under a directory
//	s3://bucket/prefix?region=...  S3-compatible service, SigV4-signed
//	                               plain HTTP (no SDK dependency)
package store

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strings"
)

// ErrNotFound reports a Get on a key with no value. Backends return it
// verbatim (not wrapped) so callers can errors.Is on it.
var ErrNotFound = errors.New("store: key not found")

// Blob is a flat keyspace of byte values. Implementations must be safe
// for concurrent use. Keys are non-empty strings drawn from
// [A-Za-z0-9._/-]; values are opaque. Put is last-writer-wins and must be
// atomic: a concurrent Get sees either the whole old value or the whole
// new one, never a torn write. Blob is the runner's trial cache
// (runner.Options.Cache).
type Blob interface {
	// Get returns the value for key, or ErrNotFound.
	Get(ctx context.Context, key string) ([]byte, error)
	// Put stores val under key, overwriting any previous value.
	Put(ctx context.Context, key string, val []byte) error
}

// Open resolves a blob store from its URL. Supported schemes:
//
//   - mem:// — a fresh in-process MemStore;
//   - file://<dir> — a FileStore rooted at <dir> (file:///abs/path, or
//     file://rel/path relative to the working directory);
//   - s3://<bucket>[/<prefix>] — an S3Store; query parameters endpoint
//     (S3-compatible services), region, access, and secret override the
//     AWS_* environment variables.
//
// The scheme is also the backend's metrics label (see Instrument).
func Open(rawurl string) (Blob, error) {
	u, err := url.Parse(rawurl)
	if err != nil {
		return nil, fmt.Errorf("store: parse %q: %w", rawurl, err)
	}
	switch u.Scheme {
	case "mem":
		return NewMemStore(), nil
	case "file":
		dir := u.Path
		if u.Host != "" {
			// file://cache/dir parses host="cache" path="/dir"; treat the
			// host as the first path segment of a relative directory.
			dir = u.Host + u.Path
		}
		if dir == "" {
			return nil, fmt.Errorf("store: file:// needs a directory (file:///var/cache/snd)")
		}
		return NewFileStore(dir)
	case "s3":
		if u.Host == "" {
			return nil, fmt.Errorf("store: s3:// needs a bucket (s3://bucket/prefix)")
		}
		return NewS3Store(S3Config{
			Bucket:    u.Host,
			Prefix:    strings.TrimPrefix(u.Path, "/"),
			Endpoint:  u.Query().Get("endpoint"),
			Region:    u.Query().Get("region"),
			AccessKey: u.Query().Get("access"),
			SecretKey: u.Query().Get("secret"),
		})
	default:
		return nil, fmt.Errorf("store: unsupported scheme %q (want mem, file, or s3)", u.Scheme)
	}
}

// Scheme extracts the backend label of a store URL ("mem", "file", "s3"),
// or "mem" when the URL is empty. It never fails: an unparseable URL will
// fail loudly in Open; Scheme is for labels only.
func Scheme(rawurl string) string {
	if rawurl == "" {
		return "mem"
	}
	if u, err := url.Parse(rawurl); err == nil && u.Scheme != "" {
		return u.Scheme
	}
	return rawurl
}
