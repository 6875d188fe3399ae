package main

import (
	"context"
	"strings"
	"testing"

	"snd/internal/exp"
)

func TestRunFig3(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig3", "-trials", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 3") {
		t.Errorf("output missing Figure 3 table:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "theory f_b") {
		t.Error("output missing theory series")
	}
}

func TestRunFig4(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig4", "-trials", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 4") {
		t.Error("output missing Figure 4 table")
	}
}

func TestRunExperiment(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "hostile", "-trials", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Hostile") {
		t.Error("output missing hostile section")
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

func TestRunParamsOverride(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-exp", "hostile", "-params", `{"Sises":1}`}, &out)
	if err == nil || !strings.Contains(err.Error(), "Sises") {
		t.Errorf("typoed params should error naming the field, got %v", err)
	}
	if err := run(context.Background(), []string{"-exp", "hostile", "-params", `{"Trials":1,"Nodes":100}`}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Hostile") {
		t.Error("output missing hostile section")
	}
	// A JSON null document means the defaults, as it does over HTTP.
	out.Reset()
	if err := run(context.Background(), []string{"-exp", "fig3", "-params", "null", "-trials", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 3") {
		t.Errorf("-params null: output missing Figure 3 table:\n%s", out.String())
	}
}

func TestRunCSVFormat(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig3", "-trials", "1", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# Figure 3") || !strings.Contains(out.String(), ",") {
		t.Errorf("expected CSV output, got:\n%s", out.String())
	}
}

// A second run against the same -store is answered entirely from the
// cache and prints the same tables.
func TestRunStoreRoundTrip(t *testing.T) {
	args := []string{"-exp", "overhead", "-params", `{"Sizes":[60,80],"Seed":7}`,
		"-store", "file://" + t.TempDir(), "-stats"}
	var tables [2]string
	for i := range tables {
		var out strings.Builder
		if err := run(context.Background(), args, &out); err != nil {
			t.Fatal(err)
		}
		body, stats, ok := strings.Cut(out.String(), "engine: ")
		if !ok {
			t.Fatalf("run %d printed no engine line:\n%s", i+1, out.String())
		}
		if i == 1 && !strings.Contains(stats, "trials 0 started / 0 done / 2 cached") {
			t.Errorf("second run was not served from the store: engine: %s", stats)
		}
		tables[i] = body
	}
	if tables[0] != tables[1] {
		t.Errorf("cached run differs:\n%s\nvs\n%s", tables[0], tables[1])
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// "ablation" is not a registered name: -exp accepts exactly what
	// -list prints.
	for _, name := range []string{"nope", "ablation"} {
		var out strings.Builder
		err := run(context.Background(), []string{"-exp", name}, &out)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("unknown experiment %q should error by name, got %v", name, err)
		}
	}
}

func TestRunNoArgs(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("no-op invocation accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}
