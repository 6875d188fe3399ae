package obs

import (
	"fmt"
	"io"
	"log/slog"
	"time"
)

// Log formats accepted by NewLogger.
const (
	LogText = "text"
	LogJSON = "json"
)

// NewLogger builds a structured logger writing to w in the given format
// ("text" or "json"; "" means text). Durations are rendered as strings
// ("1.5ms") in both formats so log pipelines don't have to guess units.
func NewLogger(w io.Writer, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Value.Kind() == slog.KindDuration {
				return slog.String(a.Key, a.Value.Duration().String())
			}
			return a
		},
	}
	switch format {
	case "", LogText:
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case LogJSON:
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want %q or %q)", format, LogText, LogJSON)
	}
}

// NopLogger returns a logger that discards everything — the default for
// library code whose caller did not configure logging.
func NopLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}

// JobAttrs groups the identifying attributes of one job for a log line:
// obs.JobAttrs(id, "fig3") renders as job.id=... job.experiment=fig3.
func JobAttrs(id, experiment string) slog.Attr {
	return slog.Group("job", slog.String("id", id), slog.String("experiment", experiment))
}

// DurationQuantiles renders a latency histogram's headline summary:
// "n=120 p50=1.2ms p95=4ms p99=9ms". The histogram must hold seconds.
func DurationQuantiles(h *Histogram) string {
	n := h.Count()
	if n == 0 {
		return "n=0"
	}
	q := func(p float64) string {
		return time.Duration(h.Quantile(p) * float64(time.Second)).Round(10 * time.Microsecond).String()
	}
	return fmt.Sprintf("n=%d p50=%s p95=%s p99=%s", n, q(0.50), q(0.95), q(0.99))
}
