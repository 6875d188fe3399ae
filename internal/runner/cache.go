package runner

import "context"

// Cache stores encoded trial samples under content-addressed keys. It is
// the Get/Put subset of store.Blob, so every store backend (mem://,
// file://, s3://) satisfies it as is. Both methods must be safe for
// concurrent use, and both are best-effort for the engine: any Get error
// is a miss and Put errors are ignored — the sweep simply recomputes next
// time.
type Cache interface {
	Get(ctx context.Context, key string) ([]byte, error)
	Put(ctx context.Context, key string, val []byte) error
}
