package main

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"snd/internal/exp"
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

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	names := strings.Fields(out.String())
	if len(names) != len(exp.Names()) {
		t.Fatalf("-list printed %d names, registry has %d", len(names), len(exp.Names()))
	}
	for i, want := range exp.Names() {
		if names[i] != want {
			t.Errorf("-list[%d] = %q, want %q", i, names[i], want)
		}
	}
}

func TestRunRegisteredExperiment(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-exp", "hostile", "-params", `{"Trials":1,"Nodes":100}`}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Hostile") {
		t.Errorf("output missing hostile section:\n%s", out.String())
	}
}

func TestRunExperimentBadParams(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-exp", "hostile", "-params", `{"Nodez":5}`}, &out)
	if err == nil || !strings.Contains(err.Error(), "Nodez") {
		t.Errorf("typoed params should error naming the field, got %v", err)
	}
	if err := run(context.Background(), []string{"-exp", "nope"}, &out); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown experiment should error by name, got %v", err)
	}
	if err := run(context.Background(), []string{"-params", `{"Trials":1}`}, &out); err == nil {
		t.Error("-params without -exp accepted")
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
