package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"snd/client"
)

// durable is job without the fields only a live server knows (the store
// scheme, the progress tally and the trace ID): the part of the /v1 job
// resource needed to serve history and to resume an interrupted job after
// a restart.
func durable(job client.Job) client.Job {
	job.Store, job.Progress, job.TraceID = "", nil, ""
	return job
}

// walRecord is one WAL line: a save carries the job, a delete carries
// only the ID (a tombstone, so an evicted job stays evicted across both
// restarts and compactions).
type walRecord struct {
	Op  string      `json:"op"` // "save" | "del"
	Job *client.Job `json:"job,omitempty"`
	ID  string      `json:"id,omitempty"`
}

// compactionSlack is how many times the record count may exceed the live
// job count before Save rewrites the log. 4x keeps rewrite cost amortized
// while bounding the file to a small multiple of the working set.
const compactionSlack = 4

// compactionFloor is the minimum record count before compaction is ever
// considered, so small logs are never rewritten.
const compactionFloor = 64

// WAL is the job store: it persists jobs across process restarts, each as
// a client.Job without its live-only fields.
// Every Save/Delete appends one fsynced JSON line, recovery replays the log
// last-wins (Save is last-writer-wins per job ID), and a log grown past
// compactionSlack times its live set is rewritten in place (temp file +
// rename, the same atomicity discipline as FileStore.Put). A WAL is safe
// for concurrent use.
//
// Crash safety: a SIGKILL mid-append leaves at most one torn line at the
// tail. OpenWAL tolerates it — the intact prefix is replayed, the torn
// tail is truncated away, and the next append starts from a clean
// boundary. Records are only ever appended or atomically rewritten, so
// no crash can corrupt an already-synced record. A crash mid-compaction
// leaves only a .wal-* temp file beside the log, which a later OpenWAL
// removes once it is older than staleTempAge.
type WAL struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	jobs    map[string]client.Job // live jobs, last-wins
	deleted map[string]bool       // tombstones awaiting compaction
	records int                   // lines in the file (live + superseded)
}

// OpenWAL opens (or creates) the log at path and replays it, removing
// .wal-* temp files that crashed compactions left beside it.
func OpenWAL(path string) (*WAL, error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: jobstore: %w", err)
	}
	sweepStaleTemps(dir, ".wal-", false, time.Now().Add(-staleTempAge))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: jobstore: %w", err)
	}
	w := &WAL{path: path, f: f, jobs: make(map[string]client.Job), deleted: make(map[string]bool)}
	if err := w.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// replay scans the log, applying every intact record. The first line that
// fails to decode — or a final line with no terminating newline — marks a
// torn tail from a crash mid-append: everything after the last good
// record is truncated away so the file ends on a record boundary.
func (w *WAL) replay() error {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: jobstore: %w", err)
	}
	r := bufio.NewReaderSize(w.f, 64<<10)
	var good int64 // byte offset after the last intact record
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A partial final line (crash between write and newline) is a
			// torn tail; discard it.
			break
		}
		if err != nil {
			return fmt.Errorf("store: jobstore: read %s: %w", w.path, err)
		}
		var rec walRecord
		if jerr := json.Unmarshal(line, &rec); jerr != nil || !w.apply(rec) {
			// Torn or corrupt record: treat everything from here on as the
			// damaged tail. (A torn write can only be the last record, so
			// stopping at the first bad line loses nothing that was ever
			// acknowledged.)
			break
		}
		good += int64(len(line))
		w.records++
	}
	if err := w.f.Truncate(good); err != nil {
		return fmt.Errorf("store: jobstore: truncate torn tail: %w", err)
	}
	if _, err := w.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("store: jobstore: %w", err)
	}
	return nil
}

// apply folds one record into the in-memory state; false means the record
// is structurally invalid (unknown op or missing payload).
func (w *WAL) apply(rec walRecord) bool {
	switch rec.Op {
	case "save":
		if rec.Job == nil || rec.Job.ID == "" {
			return false
		}
		w.jobs[rec.Job.ID] = durable(*rec.Job)
		delete(w.deleted, rec.Job.ID)
	case "del":
		if rec.ID == "" {
			return false
		}
		delete(w.jobs, rec.ID)
		w.deleted[rec.ID] = true
	default:
		return false
	}
	return true
}

// append writes one record line and fsyncs it. Callers hold w.mu.
func (w *WAL) append(rec walRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: jobstore: encode record: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("store: jobstore: append: %w", err)
	}
	// Job transitions are rare (a handful per job lifetime), so an fsync
	// per append is cheap — and it is what makes an acknowledged
	// transition survive a SIGKILL.
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: jobstore: sync: %w", err)
	}
	w.records++
	return w.maybeCompactLocked()
}

// Save persists job without its live-only fields (last-writer-wins by
// ID).
func (w *WAL) Save(job client.Job) error {
	if job.ID == "" {
		return fmt.Errorf("store: jobstore: job has no ID")
	}
	job = durable(job)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.jobs[job.ID] = job
	delete(w.deleted, job.ID)
	return w.append(walRecord{Op: "save", Job: &job})
}

// Delete tombstones id. Deleting an absent job is a no-op (no record is
// written), so eviction retries stay cheap.
func (w *WAL) Delete(id string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.jobs[id]; !ok {
		return nil
	}
	delete(w.jobs, id)
	w.deleted[id] = true
	return w.append(walRecord{Op: "del", ID: id})
}

// Load snapshots the live jobs, oldest creation first (ID breaks ties)
// so recovery re-queues interrupted jobs in submission order.
func (w *WAL) Load() ([]client.Job, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.loadLocked()
}

// maybeCompactLocked rewrites the log once superseded records dominate:
// one save line per live job, written to a temp file, fsynced, and
// renamed over the log. Tombstones are dropped — after compaction there
// is no superseded save left for them to shadow.
func (w *WAL) maybeCompactLocked() error {
	if w.records < compactionFloor || w.records <= compactionSlack*len(w.jobs) {
		return nil
	}
	return w.compactLocked()
}

func (w *WAL) compactLocked() error {
	var buf bytes.Buffer
	live, err := w.loadLocked()
	if err != nil {
		return err
	}
	for _, rec := range live {
		line, err := json.Marshal(walRecord{Op: "save", Job: &rec})
		if err != nil {
			return fmt.Errorf("store: jobstore: compact: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, ".wal-*")
	if err != nil {
		return fmt.Errorf("store: jobstore: compact: %w", err)
	}
	name := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(name) }
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		cleanup()
		return fmt.Errorf("store: jobstore: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: jobstore: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("store: jobstore: compact: %w", err)
	}
	if err := os.Rename(name, w.path); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: jobstore: compact: %w", err)
	}
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: jobstore: compact: reopen: %w", err)
	}
	w.f.Close()
	w.f = f
	w.records = len(live)
	w.deleted = make(map[string]bool)
	return nil
}

// loadLocked is Load without the lock, for internal reuse.
func (w *WAL) loadLocked() ([]client.Job, error) {
	out := make([]client.Job, 0, len(w.jobs))
	for _, rec := range w.jobs {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
