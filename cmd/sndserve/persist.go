package main

import (
	"fmt"
	"log/slog"

	"snd/client"
	"snd/internal/exp"
	"snd/internal/obs"
)

// persistLocked writes the job's current state through the job store,
// which drops the live-only fields (progress, trace_id, store): a
// restarted server mints a fresh trace for resumed jobs. Callers hold
// s.mu, which also serializes WAL appends with the job's actual
// transition order. Persistence failures are logged, not fatal: the
// in-memory table stays authoritative for this process's lifetime.
func (s *Server) persistLocked(job *entry) {
	if s.jobStore == nil {
		return
	}
	if err := s.jobStore.Save(job.Job); err != nil {
		s.log.Error("job persist failed", obs.JobAttrs(job.ID, job.Experiment), slog.Any("err", err))
	}
}

// unpersistLocked drops a job from the durable store (TTL eviction,
// failed/cancelled resubmission). Callers hold s.mu.
func (s *Server) unpersistLocked(id string) {
	if s.jobStore == nil {
		return
	}
	if err := s.jobStore.Delete(id); err != nil {
		s.log.Error("job unpersist failed", slog.String("job", id), slog.Any("err", err))
	}
}

// Recover replays the job store into the table: terminal records come
// back as queryable history (dedup included — resubmitting a recovered
// done job is answered from the table), and interrupted records (queued
// or running at the kill) are re-queued and executed again from the top.
// Re-execution goes through the normal engine path, so with -coordinator
// the resumed sweep re-enters the lease protocol, and with a persistent
// -store the already-completed trials answer from the shared cache —
// which is what makes the resumed result byte-identical to an
// uninterrupted run.
//
// Recover must be called after NewServer and before the listener starts
// (it assumes no concurrent submissions).
func (s *Server) Recover() (resumed, restored int, err error) {
	if s.jobStore == nil {
		return 0, 0, nil
	}
	recs, err := s.jobStore.Load()
	if err != nil {
		return 0, 0, fmt.Errorf("recover jobs: %w", err)
	}
	for _, rec := range recs {
		job := &entry{Job: rec}
		job.Store = s.storeScheme
		if job.Terminal() {
			s.mu.Lock()
			s.jobs[job.ID] = job
			s.mu.Unlock()
			restored++
			continue
		}
		if s.recoverInterrupted(job) {
			resumed++
		}
	}
	if resumed > 0 || restored > 0 {
		s.log.Info("job table recovered",
			slog.Int("resumed", resumed), slog.Int("restored", restored))
	}
	return resumed, restored, nil
}

// recoverInterrupted re-queues one non-terminal record. A record whose
// experiment no longer exists (or whose params no longer decode, e.g.
// after a schema change across the restart) is marked failed instead of
// resumed — visible history, not a crash loop.
func (s *Server) recoverInterrupted(job *entry) bool {
	fail := func(msg string) {
		now := s.now().UTC()
		job.Status = client.StatusFailed
		job.Error = msg
		job.Started = nil
		job.Finished = &now
		s.mu.Lock()
		s.jobs[job.ID] = job
		s.persistLocked(job)
		s.mu.Unlock()
		s.log.Warn("interrupted job not resumable", obs.JobAttrs(job.ID, job.Experiment),
			slog.String("err", msg))
	}
	e, ok := exp.Lookup(job.Experiment)
	if !ok {
		fail(fmt.Sprintf("recovery: unknown experiment %q", job.Experiment))
		return false
	}
	bound, err := e.Decode(job.Params)
	if err != nil {
		fail(fmt.Sprintf("recovery: params no longer decode: %v", err))
		return false
	}
	job.Status = client.StatusQueued
	job.Started = nil
	job.Finished = nil
	job.Error = ""
	job.Result = nil
	job.bound = bound
	// A resumed job starts a fresh trace, and its timeout budget restarts
	// from zero: the pre-kill run's span and elapsed time are gone with the
	// process.
	jspan := s.tracer.StartRoot("job.run")
	jspan.SetAttr("resumed", "true")
	s.mu.Lock()
	s.startLocked(job, jspan)
	s.mu.Unlock()
	s.log.Info("resuming interrupted job", obs.JobAttrs(job.ID, job.Experiment))
	return true
}
