package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzWALReplay treats arbitrary bytes as a job log. OpenWAL must either
// refuse it or recover a job table, and that table must come back from
// one Save and a reopen unchanged, plus the saved job. The seeds under
// testdata/fuzz/FuzzWALReplay cover an intact log, tombstones, a torn
// tail, a corrupt middle record and non-canonical JSON.
func FuzzWALReplay(f *testing.F) {
	probe := JobRecord{ID: "probe", Experiment: "fig3", Status: "queued", Created: time.Unix(1700000000, 0).UTC()}
	f.Fuzz(func(t *testing.T, log []byte) {
		path := filepath.Join(t.TempDir(), "jobs.wal")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(path)
		if err != nil {
			return
		}
		before, err := w.Load()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Save(probe); err != nil {
			t.Fatalf("Save after replay: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w, err = OpenWAL(path)
		if err != nil {
			t.Fatalf("reopen after Save: %v", err)
		}
		defer w.Close()
		after, err := w.Load()
		if err != nil {
			t.Fatal(err)
		}
		want := canonicalJobs(t, before)
		want[probe.ID] = canonicalJobs(t, []JobRecord{probe})[probe.ID]
		if got := canonicalJobs(t, after); !reflect.DeepEqual(got, want) {
			t.Fatalf("job table changed across Save and reopen:\n got %v\nwant %v", got, want)
		}
	})
}

// canonicalJobs keys each record's JSON encoding by ID. Encoding compacts
// raw params and results, which a compaction may rewrite, so equal tables
// compare equal whatever whitespace the log held.
func canonicalJobs(t *testing.T, recs []JobRecord) map[string]string {
	t.Helper()
	out := make(map[string]string, len(recs))
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("encode %q: %v", r.ID, err)
		}
		out[r.ID] = string(b)
	}
	return out
}
