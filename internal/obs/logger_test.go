package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNewLoggerJSON(t *testing.T) {
	var b strings.Builder
	log, err := NewLogger(&b, LogJSON)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("job finished", JobAttrs("abc123", "fig3"), "status", "done")

	var entry map[string]any
	if err := json.Unmarshal([]byte(b.String()), &entry); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, b.String())
	}
	job, ok := entry["job"].(map[string]any)
	if !ok || job["id"] != "abc123" || job["experiment"] != "fig3" {
		t.Errorf("job group missing or wrong: %v", entry)
	}
	if entry["status"] != "done" {
		t.Errorf("flat attr missing: %v", entry)
	}
}

func TestNewLoggerTextAndErrors(t *testing.T) {
	var b strings.Builder
	log, err := NewLogger(&b, LogText)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("http request", JobAttrs("j1", "fig4"))
	if !strings.Contains(b.String(), "job.experiment=fig4") || !strings.Contains(b.String(), "job.id=j1") {
		t.Errorf("text log missing job attrs: %s", b.String())
	}
	if _, err := NewLogger(&b, "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestDurationQuantiles(t *testing.T) {
	h := newHistogram(DefBuckets)
	if s := DurationQuantiles(h); s != "n=0" {
		t.Errorf("empty summary = %q", s)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.002)
	}
	s := DurationQuantiles(h)
	for _, want := range []string{"n=100", "p50=", "p95=", "p99="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}
