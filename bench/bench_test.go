package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json (runs the full-size workloads, about a minute)")

func TestMain(m *testing.M) {
	// The harness re-executes this test binary as its workload processes.
	RunChildIfRequested()
	os.Exit(m.Run())
}

// toyRun is a workload at self-test size with the op budget that bounds
// its window.
type toyRun struct {
	Workload
	maxOps int
}

func toys() []toyRun {
	var out []toyRun
	for _, w := range Workloads {
		maxOps := 2
		switch w.Name {
		case DensePaper:
			w.Size.Nodes, w.Size.Threshold = 50, 8
		case SparseLarge:
			w.Size.Nodes, w.Size.Field = 300, 173
		case AttackSweep:
			w.Size.Nodes, w.Size.Trials = 80, 4
			maxOps = 1
		case ServiceJobs:
			w.Size.Nodes, w.Size.Trials = 80, 2
			maxOps = 6 // five fresh jobs and one repeat
		}
		out = append(out, toyRun{w, maxOps})
	}
	return out
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables in step, and checks the tables' own rules.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, table %q", i, doc.Workloads[i], w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(E2E) > 16 || len(Layer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(E2E), len(Layer))
	}
	if len(doc.EndToEnd) != len(E2E) || len(doc.PerLayer) != len(Layer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the tables %d/%d", len(doc.EndToEnd), len(doc.PerLayer), len(E2E), len(Layer))
	}
	for i, m := range E2E {
		d := doc.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, table %+v", i, d, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	setup, _ := metricByName("setup_s")
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s declared as %+v", setup)
	}
	for i, m := range Layer {
		d := doc.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, table %+v", i, d, m)
		}
		if target, ok := metricByName(m.Target); !ok || target.Bound == 0 {
			t.Errorf("%s: target %q is not an end-to-end metric", m.Name, m.Target)
		}
		for _, w := range m.On {
			if _, ok := WorkloadByName(w); !ok {
				t.Errorf("%s: workload %q does not exist", m.Name, w)
			}
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]Metric(nil), E2E...), Layer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	for _, w := range Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestToyRuns runs every workload at toy size, untraced and traced,
// through the same processes and checks the benchmark runs on, and
// requires every declared metric with its unit and correct outputs.
func TestToyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns workload processes")
	}
	sndserve := filepath.Join(t.TempDir(), "sndserve")
	if out, err := exec.Command("go", "build", "-o", sndserve, "snd/cmd/sndserve").CombinedOutput(); err != nil {
		t.Fatalf("build sndserve: %v\n%s", err, out)
	}
	for _, traced := range []bool{false, true} {
		want := E2E
		if traced {
			want = Layer
		}
		for _, tw := range toys() {
			name := tw.Name
			results, err := Run(Options{
				Workloads: []Workload{tw.Workload}, Seed: 1, Seconds: 60, MaxOps: tw.maxOps,
				Trace: traced, Sndserve: sndserve, Log: testLog{t},
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			r := results[0]
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", name, traced, r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := r.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %+v, want a number in %s", name, traced, m.Name, v, m.Unit)
				}
			}
			line, err := json.Marshal(Summarize(results))
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("summary line %s", line)
			}
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestGolden regenerates testdata/golden.json with -update; without it,
// the toy and full runs check the committed digests themselves.
func TestGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/golden.json")
	}
	goldens = nil // regenerate, not compare
	ops := map[string]int{DensePaper: 8, SparseLarge: 4, AttackSweep: 4}
	sizes := map[string][]Size{}
	for _, w := range Workloads {
		sizes[w.Name] = append(sizes[w.Name], w.Size)
	}
	for _, tw := range toys() {
		sizes[tw.Name] = append(sizes[tw.Name], tw.Size)
	}
	out := map[string][]string{}
	for name, n := range ops {
		for _, sz := range sizes[name] {
			res, err := runChild(spec{Workload: name, Size: sz, Seed: 1, Seconds: math.MaxInt32, MaxOps: n - 1, Spawned: time.Now()})
			if err != nil || len(res.Failures) > 0 || len(res.Digests) != n {
				t.Fatalf("%s %+v: %v %v (%d digests)", name, sz, err, res.Failures, len(res.Digests))
			}
			out[goldenKey(name, sz, 1)] = res.Digests
		}
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d golden series", len(out))
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) on values worked out by hand.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := Metric{Better: "lower", Bound: 0.10}
	seq := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    Metric
		a, b []float64
		want string
	}{
		{"same", lower, seq(100, 1), seq(100, 1), "ok"},
		{"faster everywhere", lower, seq(100, 1), seq(80, 1), "gain"},
		{"slower by 20%", lower, seq(100, 1), seq(120, 1), "regression"},
		{"too noisy", lower, seq(100, 10), seq(100, 10), "unresolved"},
		{"layer metric, no bound", Metric{Better: "lower"}, seq(100, 1), seq(120, 1), "loss"},
		{"extra, no direction", Metric{}, seq(100, 1), seq(120, 1), "higher"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	spans := []Span{
		{ID: 1, Name: "op", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(60)}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: at(50), End: at(70)}, // runs past b
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op": 50 * time.Millisecond, "a": 30 * time.Millisecond, "b": 20 * time.Millisecond, "c": 20 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
