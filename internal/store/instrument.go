package store

import (
	"context"
	"errors"
	"time"

	"snd/internal/obs"
	"snd/internal/obs/trace"
)

// storeMetrics is the snd_store_* family, shared by every instrumented
// backend on one registry (get-or-register semantics make the vectors
// safe to re-resolve).
type storeMetrics struct {
	ops      *obs.CounterVec
	errs     *obs.CounterVec
	duration *obs.HistogramVec
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	return &storeMetrics{
		ops:      reg.CounterVec("snd_store_ops_total", "Blob-store operations by backend and op.", "backend", "op"),
		errs:     reg.CounterVec("snd_store_errors_total", "Blob-store operations that failed (ErrNotFound excluded).", "backend", "op"),
		duration: reg.HistogramVec("snd_store_op_duration_seconds", "Blob-store operation latency.", nil, "backend", "op"),
	}
}

// Instrumented wraps a Blob with snd_store_* op/latency/error metrics and
// — when the caller's context carries a span — a child span per operation.
// ErrNotFound is a domain answer, not a failure, and is excluded from the
// error counter. Uninstrumented contexts cost one nil check per op, so
// wrapping the trial cache keeps the hot path clean.
type Instrumented struct {
	b       Blob
	backend string
	m       *storeMetrics
}

// Instrument wraps b, labeling its series with backend (normally the
// factory scheme: "mem", "file", "s3").
func Instrument(b Blob, backend string, reg *obs.Registry) *Instrumented {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Instrumented{b: b, backend: backend, m: newStoreMetrics(reg)}
}

// observe records one operation's outcome; span is nil when the context
// carried none.
func (s *Instrumented) observe(op string, start time.Time, span *trace.Span, err error) {
	s.m.ops.With(s.backend, op).Inc()
	s.m.duration.With(s.backend, op).Observe(time.Since(start).Seconds())
	if err != nil && !errors.Is(err, ErrNotFound) {
		s.m.errs.With(s.backend, op).Inc()
		span.SetError(err)
	}
	span.End()
}

// span opens a child span of the context's span for one store op; the
// nil-receiver span contract makes every touch point free when untraced.
func (s *Instrumented) span(ctx context.Context, op string) *trace.Span {
	sp := trace.SpanFromContext(ctx).StartChild("store." + op)
	sp.SetAttr("backend", s.backend)
	return sp
}

func (s *Instrumented) Get(ctx context.Context, key string) ([]byte, error) {
	sp, start := s.span(ctx, "get"), time.Now()
	v, err := s.b.Get(ctx, key)
	s.observe("get", start, sp, err)
	return v, err
}

func (s *Instrumented) Put(ctx context.Context, key string, val []byte) error {
	sp, start := s.span(ctx, "put"), time.Now()
	err := s.b.Put(ctx, key, val)
	s.observe("put", start, sp, err)
	return err
}
