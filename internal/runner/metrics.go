package runner

import (
	"context"
	"sync/atomic"

	"snd/internal/obs"
)

// Metrics is the engine's instrumentation, registered on the engine's
// obs.Registry at construction. Per-trial series are labeled by the sweep's
// Spec.Experiment, so one shared engine (as in cmd/sndserve) still yields
// per-experiment latency and cache-effectiveness breakdowns.
type Metrics struct {
	// Sweeps counts MapCtx calls per experiment.
	Sweeps *obs.CounterVec
	// Started/Done/Failed/Retried count trial executions (cache hits
	// excluded), successful samples, drops past the retry budget, and
	// panic re-attempts.
	Started *obs.CounterVec
	Done    *obs.CounterVec
	Failed  *obs.CounterVec
	Retried *obs.CounterVec
	// CacheHits/CacheMisses count cache lookups on engines with a cache
	// configured; a corrupt entry counts as a miss.
	CacheHits   *obs.CounterVec
	CacheMisses *obs.CounterVec
	// TrialDuration observes each executed trial's wall time in seconds.
	TrialDuration *obs.HistogramVec
	// QueueWait observes how long a scheduled cell waited for a free
	// worker — queue pressure on the shared pool. Serial sweeps (one
	// worker) have no queue and record nothing.
	QueueWait *obs.HistogramVec
	// SweepDone/SweepTotal are the engine-wide progress pair: Total grows
	// by the grid size when a sweep starts, Done by one per completed cell
	// (executed or cached). Total-Done is the engine's outstanding backlog.
	SweepDone  *obs.GaugeVec
	SweepTotal *obs.GaugeVec
	// InFlight tracks trials executing right now across all sweeps.
	InFlight *obs.Gauge
	// Workers reports the pool bound.
	Workers *obs.Gauge
}

func newMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Sweeps:        reg.CounterVec("snd_sweeps_total", "Parameter sweeps executed.", "experiment"),
		Started:       reg.CounterVec("snd_trials_started_total", "Trials handed to the worker pool (cache hits excluded).", "experiment"),
		Done:          reg.CounterVec("snd_trials_done_total", "Trials completed successfully.", "experiment"),
		Failed:        reg.CounterVec("snd_trials_failed_total", "Trials dropped after exhausting the panic-retry budget.", "experiment"),
		Retried:       reg.CounterVec("snd_trials_retried_total", "Trial re-attempts after a panic.", "experiment"),
		CacheHits:     reg.CounterVec("snd_cache_hits_total", "Trial cells answered from the result cache.", "experiment"),
		CacheMisses:   reg.CounterVec("snd_cache_misses_total", "Trial cache lookups that missed (corrupt entries included).", "experiment"),
		TrialDuration: reg.HistogramVec("snd_trial_duration_seconds", "Wall time of executed trials.", nil, "experiment"),
		QueueWait:     reg.HistogramVec("snd_trial_queue_wait_seconds", "Time a scheduled cell waited for a free worker.", nil, "experiment"),
		SweepDone:     reg.GaugeVec("snd_sweep_trials_done", "Cells completed (executed or cached) across all sweeps.", "experiment"),
		SweepTotal:    reg.GaugeVec("snd_sweep_trials_total", "Cells scheduled across all sweeps.", "experiment"),
		InFlight:      reg.Gauge("snd_trials_inflight", "Trials executing right now."),
		Workers:       reg.Gauge("snd_engine_workers", "Size of the worker pool."),
	}
}

// expMetrics is one experiment's resolved children, looked up once per
// sweep so the per-cell hot path is pure atomics — no map lookups.
type expMetrics struct {
	sweeps, started, done, failed, retried *obs.Counter
	cacheHits, cacheMisses                 *obs.Counter
	duration, queueWait                    *obs.Histogram
	sweepDone, sweepTotal                  *obs.Gauge
}

func (m *Metrics) forExperiment(experiment string) expMetrics {
	if experiment == "" {
		experiment = "unnamed"
	}
	return expMetrics{
		sweeps:      m.Sweeps.With(experiment),
		started:     m.Started.With(experiment),
		done:        m.Done.With(experiment),
		failed:      m.Failed.With(experiment),
		retried:     m.Retried.With(experiment),
		cacheHits:   m.CacheHits.With(experiment),
		cacheMisses: m.CacheMisses.With(experiment),
		duration:    m.TrialDuration.With(experiment),
		queueWait:   m.QueueWait.With(experiment),
		sweepDone:   m.SweepDone.With(experiment),
		sweepTotal:  m.SweepTotal.With(experiment),
	}
}

// Progress tracks one consumer's view of sweep completion: how many cells
// the sweeps running under its context have scheduled, finished, and
// dropped. Attach one to a context with WithProgress and every MapCtx under
// that context reports into it — cmd/sndserve attaches one per job so
// GET /jobs/{id} can answer "how far along is it" while the job runs.
// All methods are safe for concurrent use.
type Progress struct {
	total   atomic.Int64
	done    atomic.Int64
	dropped atomic.Int64
}

// ProgressSnapshot is a point-in-time copy of a Progress, in the shape the
// job API serves.
type ProgressSnapshot struct {
	// Done counts cells completed (executed or served from cache).
	Done int64 `json:"done"`
	// Total counts cells scheduled so far. It grows as each sweep under
	// the context starts, so Done == Total only means "caught up", not
	// necessarily "finished", until the job itself reports terminal.
	Total int64 `json:"total"`
	// Dropped counts cells lost to the panic-retry budget.
	Dropped int64 `json:"dropped,omitempty"`
}

// Snapshot returns the current counts.
func (p *Progress) Snapshot() ProgressSnapshot {
	return ProgressSnapshot{
		Done:    p.done.Load(),
		Total:   p.total.Load(),
		Dropped: p.dropped.Load(),
	}
}

type progressKey struct{}

// WithProgress returns a context under which every MapCtx reports cell
// completion into p.
func WithProgress(ctx context.Context, p *Progress) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey{}, p)
}

// ProgressFrom returns the Progress attached to ctx, or nil.
func ProgressFrom(ctx context.Context) *Progress {
	p, _ := ctx.Value(progressKey{}).(*Progress)
	return p
}
