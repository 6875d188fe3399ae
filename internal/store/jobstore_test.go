package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func record(id, status string, created time.Time) JobRecord {
	return JobRecord{
		ID:         id,
		Experiment: "overhead",
		Params:     json.RawMessage(`{"Seed":1}`),
		Status:     status,
		Created:    created,
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	if err := w.Save(record("a", "queued", t0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(record("b", "queued", t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	// Transition a twice: last-wins.
	if err := w.Save(record("a", "running", t0)); err != nil {
		t.Fatal(err)
	}
	done := record("a", "done", t0)
	done.Result = json.RawMessage(`{"mean":1.5}`)
	if err := w.Save(done); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the replayed state must be the final one, creation-ordered.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records, want 2: %+v", len(recs), recs)
	}
	if recs[0].ID != "a" || recs[0].Status != "done" || string(recs[0].Result) != `{"mean":1.5}` {
		t.Fatalf("recs[0] = %+v", recs[0])
	}
	if recs[1].ID != "b" || recs[1].Status != "queued" {
		t.Fatalf("recs[1] = %+v", recs[1])
	}

	// Delete tombstones survive a reopen.
	if err := w2.Delete("a"); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	recs, _ = w3.Load()
	if len(recs) != 1 || recs[0].ID != "b" {
		t.Fatalf("after delete+reopen: %+v", recs)
	}
}

// TestWALCrashPoints replays a recorded session from every point a crash
// can leave on disk. The session saves and deletes jobs until the log
// compacts once, snapshotting the log after every call. Every byte-offset
// truncation of every snapshot must reopen to the table of the complete
// lines in that prefix and then accept one more Save that survives a
// reopen. The compaction's own crash points — a partial or a complete
// .wal-* temp file beside the not-yet-replaced log — must not change the
// reopened table, and OpenWAL must remove such a temp once it is stale.
func TestWALCrashPoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	statuses := []string{"queued", "running", "done"}
	want := map[string]JobRecord{}
	var snaps [][]byte
	var preRename, compacted []byte
	// Run until the log has compacted and three more calls followed.
	for i, after := 0, 0; after < 4; i++ {
		id := fmt.Sprintf("j%d", i%3)
		prev := walRecords(w)
		var line []byte
		if i%7 == 6 {
			if err := w.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(want, id)
			line, _ = json.Marshal(walRecord{Op: "del", ID: id})
		} else {
			rec := JobRecord{ID: id, Status: statuses[i%3], Created: t0.Add(time.Duration(i%3) * time.Second)}
			if err := w.Save(rec); err != nil {
				t.Fatal(err)
			}
			want[id] = rec
			line, _ = json.Marshal(walRecord{Op: "save", Job: &rec})
		}
		snap, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if walRecords(w) < prev {
			// The call appended its line, then rewrote the log: the state
			// just before the rename is the old log plus that line, beside a
			// temp file holding what the log now is.
			preRename = append(append(append([]byte(nil), snaps[len(snaps)-1]...), line...), '\n')
			compacted = snap
			snaps = append(snaps, preRename)
		}
		if compacted != nil {
			after++
		}
		if got := tableJSON(t, replayLines(t, snap)); got != tableJSON(t, want) {
			t.Fatalf("call %d: log replays to %s, want %s", i, got, tableJSON(t, want))
		}
		snaps = append(snaps, snap)
	}
	w.Close()

	// Truncations shared with the previous snapshot (its append-only
	// prefix) were already tried; start each sweep where the bytes differ.
	// Snapshots are independent, so their sweeps run in parallel.
	t.Run("truncations", func(t *testing.T) {
		var prev []byte
		for i, snap := range snaps {
			from := 0
			for from < len(prev) && from < len(snap) && prev[from] == snap[from] {
				from++
			}
			prev = snap
			t.Run(fmt.Sprintf("snapshot%02d", i), func(t *testing.T) {
				t.Parallel()
				path := filepath.Join(t.TempDir(), "jobs.wal")
				var want map[string]JobRecord
				cut := -2 // no line boundary yet seen
				for n := from; n <= len(snap); n++ {
					// The expected table changes only at line boundaries.
					if c := bytes.LastIndexByte(snap[:n], '\n'); c != cut {
						cut, want = c, replayLines(t, snap[:n])
					}
					checkCrashPoint(t, path, snap[:n], want)
				}
			})
		}
	})

	// Compaction crash points: the log is still the pre-rename one and a
	// .wal-* temp holds part or all of its replacement.
	tmp := filepath.Join(dir, ".wal-crash")
	for _, temp := range [][]byte{compacted[:len(compacted)/2], compacted} {
		if err := os.WriteFile(tmp, temp, 0o644); err != nil {
			t.Fatal(err)
		}
		checkCrashPoint(t, path, preRename, replayLines(t, preRename))
		if _, err := os.Stat(tmp); err != nil {
			t.Fatalf("a fresh compaction temp was removed: %v", err)
		}
		old := time.Now().Add(-2 * staleTempAge)
		if err := os.Chtimes(tmp, old, old); err != nil {
			t.Fatal(err)
		}
		checkCrashPoint(t, path, preRename, replayLines(t, preRename))
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("a stale compaction temp survived OpenWAL: %v", err)
		}
	}
}

// checkCrashPoint leaves log as the WAL file, reopens it, and checks the
// recovered table against want, the table of the complete lines of log,
// and that only those lines are left in the file; one more Save must then
// survive a reopen.
func checkCrashPoint(t *testing.T, path string, log []byte, want map[string]JobRecord) {
	t.Helper()
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL on a %d-byte prefix: %v", len(log), err)
	}
	if got := loadJSON(t, w); got != tableJSON(t, want) {
		t.Fatalf("%d-byte prefix recovered %s, want %s", len(log), got, tableJSON(t, want))
	}
	// The torn tail is cut away, so the next append starts on a line
	// boundary.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if complete := int64(bytes.LastIndexByte(log, '\n') + 1); fi.Size() != complete {
		t.Fatalf("%d-byte prefix: log is %d bytes after recovery, want its %d bytes of complete lines", len(log), fi.Size(), complete)
	}
	extra := JobRecord{ID: "after-crash", Status: "queued", Created: time.Unix(1, 0).UTC()}
	if err := w.Save(extra); err != nil {
		t.Fatal(err)
	}
	w.Close()
	want = maps.Clone(want)
	want[extra.ID] = extra
	w, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := loadJSON(t, w); got != tableJSON(t, want) {
		t.Fatalf("%d-byte prefix plus one Save reopened as %s, want %s", len(log), got, tableJSON(t, want))
	}
}

// replayLines folds the newline-terminated lines of a log into a job
// table: the state a crash leaving exactly these bytes must recover.
func replayLines(t *testing.T, log []byte) map[string]JobRecord {
	t.Helper()
	table := map[string]JobRecord{}
	for {
		line, rest, ok := bytes.Cut(log, []byte("\n"))
		if !ok {
			return table
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("complete log line %q does not decode: %v", line, err)
		}
		if rec.Op == "del" {
			delete(table, rec.ID)
		} else {
			table[rec.Job.ID] = *rec.Job
		}
		log = rest
	}
}

func loadJSON(t *testing.T, w *WAL) string {
	t.Helper()
	recs, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]JobRecord{}
	for _, rec := range recs {
		table[rec.ID] = rec
	}
	return tableJSON(t, table)
}

// tableJSON renders a job table canonically (encoding/json sorts map
// keys) so tables compare as strings.
func tableJSON(t *testing.T, table map[string]JobRecord) string {
	t.Helper()
	b, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWALGarbageTail extends recovery to a tail that is complete-line but
// not JSON (e.g. a partially-overwritten sector): the bad line and
// everything after it is dropped.
func TestWALGarbageTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now().UTC()
	w.Save(record("keep", "done", t0))
	w.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{\"op\":\"save\",\"job\":garbage}\n")
	f.Close()

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("recovery failed on garbage tail: %v", err)
	}
	defer w2.Close()
	recs, _ := w2.Load()
	if len(recs) != 1 || recs[0].ID != "keep" {
		t.Fatalf("recovered %+v", recs)
	}
}

// TestWALCompaction proves the log is rewritten once superseded records
// dominate, and that the compacted log replays to the same state.
func TestWALCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	// 2 live jobs, re-saved far past the slack: the log must compact.
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("job-%d", i%2)
		if err := w.Save(record(id, "running", t0.Add(time.Duration(i%2)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	// The log is bounded by max(compactionFloor, slack*live): each time it
	// reaches the floor it is rewritten down to the 2 live records.
	if got := walRecords(w); got >= compactionFloor {
		t.Fatalf("log holds %d records after compaction threshold, want < %d", got, compactionFloor)
	}
	recs, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("live set = %+v", recs)
	}

	// The compacted file on disk replays to the same state.
	w.Close()
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs2, _ := w2.Load()
	if len(recs2) != 2 || recs2[0].ID != recs[0].ID || recs2[1].ID != recs[1].ID {
		t.Fatalf("replayed %+v, want %+v", recs2, recs)
	}
}

// walRecords reports how many lines the log currently holds (live +
// superseded) — observability for the compaction tests.
func walRecords(w *WAL) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}
