package main

import (
	"context"
	"regexp"
	"strings"
	"testing"
)

func TestRunBenign(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-nodes", "100", "-t", "5", "-seed", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"accuracy", "per-node overhead", "radio:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "d-safety") {
		t.Error("benign run printed a safety audit")
	}
}

func TestRunWithAttack(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "150", "-range", "25", "-t", "4",
		"-compromise", "2", "-rounds", "1", "-roundsize", "30", "-seed", "3",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "d-safety audit") {
		t.Errorf("attack run missing audit:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "violations: 0") {
		t.Errorf("2 ≤ t compromises should stay contained:\n%s", out.String())
	}
}

func TestRunAgingNetwork(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "100", "-t", "4", "-m", "2",
		"-kill", "0.2", "-rounds", "2", "-roundsize", "20", "-seed", "4",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "battery death: 20 nodes") {
		t.Errorf("kill not reported:\n%s", out.String())
	}
}

func TestRunTooManyCompromises(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-nodes", "5", "-compromise", "10"}, &out); err == nil {
		t.Error("impossible compromise count accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunWithTrace(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-nodes", "60", "-t", "2", "-trace", "100"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "protocol trace") {
		t.Errorf("trace summary missing:\n%s", s)
	}
	if !strings.Contains(s, "record-accepted") {
		t.Errorf("trace counts missing:\n%s", s)
	}
	// The retained events themselves are printed, one "#seq rround kind
	// node[<-peer]" line each.
	if !regexp.MustCompile(`(?m)^#\d+ r\d+ [a-z-]+ `).MatchString(s) {
		t.Errorf("trace events missing:\n%s", s)
	}
}

// -stats prints the per-kind tally; -trace prints the same tally after
// the retained events.
func TestRunStatsCounts(t *testing.T) {
	var stats, traced strings.Builder
	args := []string{"-nodes", "60", "-t", "2"}
	if err := run(context.Background(), append(args, "-stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(args, "-trace", "5"), &traced); err != nil {
		t.Fatal(err)
	}
	want := regexp.MustCompile(`(?s)protocol events \(\d+ total\):\n  hello +60\n.*`).FindString(stats.String())
	if want == "" {
		t.Fatalf("-stats counts missing:\n%s", stats.String())
	}
	if !strings.HasSuffix(traced.String(), want) {
		t.Errorf("-trace counts differ from -stats counts:\n%s\nwant suffix:\n%s", traced.String(), want)
	}
}

func TestRunWithMap(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-nodes", "50", "-t", "2", "-compromise", "1", "-map"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "field map") {
		t.Errorf("map missing:\n%s", s)
	}
	if !strings.Contains(s, "R") || !strings.Contains(s, "X") {
		t.Errorf("replica/compromised marks missing:\n%s", s)
	}
}
