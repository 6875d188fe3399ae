package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: snd
cpu: AMD EPYC 7B13
BenchmarkBroadcast/n=200-8         	  210843	      5630 ns/op
BenchmarkBroadcast/n=2000-8        	  179716	      6640 ns/op
BenchmarkTruthGraph/n=200-16       	    8372	    142035 ns/op	   49250 B/op	      13 allocs/op
BenchmarkRunnerCacheHit-8          	       1	   1234567 ns/op
BenchmarkOdd
PASS
ok  	snd	12.345s
`

func TestParseBenchOutput(t *testing.T) {
	snap, err := parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Goos != "linux" || snap.Goarch != "amd64" || snap.CPU != "AMD EPYC 7B13" {
		t.Errorf("header = %s/%s/%s", snap.Goos, snap.Goarch, snap.CPU)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(snap.Benchmarks), snap.Benchmarks)
	}

	b, ok := snap.Benchmarks["Broadcast/n=200"]
	if !ok {
		t.Fatal("Broadcast/n=200 missing (prefix/suffix not stripped?)")
	}
	if b.NsPerOp != 5630 || b.Iterations != 210843 {
		t.Errorf("Broadcast/n=200 = %+v", b)
	}

	// -16 suffix stripped too, and the optional B/op / allocs/op captured.
	tg, ok := snap.Benchmarks["TruthGraph/n=200"]
	if !ok {
		t.Fatal("TruthGraph/n=200 missing")
	}
	if tg.BytesPerOp == nil || *tg.BytesPerOp != 49250 {
		t.Errorf("TruthGraph B/op = %v", tg.BytesPerOp)
	}
	if tg.AllocsPerOp == nil || *tg.AllocsPerOp != 13 {
		t.Errorf("TruthGraph allocs/op = %v", tg.AllocsPerOp)
	}

	// -benchtime=1x single-iteration results parse.
	if c := snap.Benchmarks["RunnerCacheHit"]; c.Iterations != 1 || c.NsPerOp != 1234567 {
		t.Errorf("RunnerCacheHit = %+v", c)
	}

	// Sample without B/op must omit the pointer fields.
	if b.BytesPerOp != nil || b.AllocsPerOp != nil {
		t.Errorf("Broadcast carries absent measurements: %+v", b)
	}
}

func TestParseRejectsMangledValues(t *testing.T) {
	_, err := parse(strings.NewReader("BenchmarkX-8  10  abc ns/op\n"))
	if err == nil {
		t.Fatal("mangled ns/op value accepted")
	}
}

func TestParseEmptyInput(t *testing.T) {
	snap, err := parse(strings.NewReader("PASS\nok  snd  0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 0 {
		t.Fatalf("benchmarks = %v, want none", snap.Benchmarks)
	}
}

func TestTrimName(t *testing.T) {
	type named struct {
		name  string
		procs int
	}
	cases := map[string]named{
		"BenchmarkBroadcast-8":                          {"Broadcast", 8},
		"BenchmarkBroadcast/n=200-16":                   {"Broadcast/n=200", 16},
		"BenchmarkFig3Accuracy":                         {"Fig3Accuracy", 1},
		"BenchmarkRunnerSerialVsParallel/mode=serial-4": {"RunnerSerialVsParallel/mode=serial", 4},
	}
	for in, want := range cases {
		if name, procs := trimName(in); name != want.name || procs != want.procs {
			t.Errorf("trimName(%q) = %q, %d, want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

// TestSnapshotRecordsEnvironment: the header carries the GOMAXPROCS of
// the results (1 where go test printed no suffix), the Go version and the
// CPU count, while the keys stay suffix-free.
func TestSnapshotRecordsEnvironment(t *testing.T) {
	out := `BenchmarkRunnerSerialVsParallel/workers=4-2  1  900000000 ns/op
BenchmarkBroadcast/n=200-8  210843  5630 ns/op
BenchmarkTruthGraph/n=200  3000  41000 ns/op
BenchmarkBroadcast/n=1000-8  40000  30000 ns/op
`
	snap, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(snap.GOMAXPROCS, []int{1, 2, 8}) {
		t.Errorf("GOMAXPROCS = %v, want [1 2 8]", snap.GOMAXPROCS)
	}
	if _, ok := snap.Benchmarks["RunnerSerialVsParallel/workers=4"]; !ok {
		t.Errorf("keys changed: %v", snap.Benchmarks)
	}
	stampEnv(snap)
	if snap.GoVersion != runtime.Version() || snap.NumCPU != runtime.NumCPU() {
		t.Errorf("env stamp = %q/%d, want %q/%d", snap.GoVersion, snap.NumCPU, runtime.Version(), runtime.NumCPU())
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"go_version":`, `"num_cpu":`, `"gomaxprocs":[1,2,8]`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("snapshot JSON lacks %s: %s", key, raw)
		}
	}
}

func TestParseAggregatesRepeatedResults(t *testing.T) {
	// -count=3 emits the same benchmark three times; the snapshot must keep
	// the minimum (not the last) and count the samples.
	out := `goos: linux
BenchmarkTruthGraph/n=10000-8  100  300000 ns/op  9000 B/op  12 allocs/op
BenchmarkTruthGraph/n=10000-8  100  250000 ns/op  8000 B/op  11 allocs/op
BenchmarkTruthGraph/n=10000-8  100  280000 ns/op  9500 B/op  13 allocs/op
BenchmarkBroadcast/n=200-8  210843  5630 ns/op
`
	snap, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	tg := snap.Benchmarks["TruthGraph/n=10000"]
	if tg.NsPerOp != 250000 {
		t.Errorf("ns/op = %v, want the minimum 250000 (last-wins bug?)", tg.NsPerOp)
	}
	if tg.Samples != 3 {
		t.Errorf("samples = %d, want 3", tg.Samples)
	}
	if tg.BytesPerOp == nil || *tg.BytesPerOp != 8000 || tg.AllocsPerOp == nil || *tg.AllocsPerOp != 11 {
		t.Errorf("minimum memory stats not kept: %+v", tg)
	}
	if b := snap.Benchmarks["Broadcast/n=200"]; b.Samples != 1 {
		t.Errorf("single-line benchmark samples = %d, want 1", b.Samples)
	}
}

// B/op and allocs/op each aggregate to their own minimum, whichever
// sample ran fastest: a one-iteration sample's allocation count depends on
// whether a collection emptied a sync.Pool first, and the gate must not
// read that as a regression.
func TestParseAggregatesMemoryToMinimum(t *testing.T) {
	out := `BenchmarkTruthGraphMillion/build-2  1  2500000000 ns/op  1933691840 B/op  209 allocs/op
BenchmarkTruthGraphMillion/build-2  1  2600000000 ns/op  104670936 B/op  25 allocs/op
BenchmarkTruthGraphMillion/build-2  1  2700000000 ns/op  950888752 B/op  23 allocs/op
BenchmarkBroadcast/n=200  10000  5000 ns/op
BenchmarkBroadcast/n=200  10000  4000 ns/op  0 B/op  0 allocs/op
`
	snap, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	tg := snap.Benchmarks["TruthGraphMillion/build"]
	if tg.NsPerOp != 2500000000 || tg.Iterations != 1 || tg.Samples != 3 {
		t.Errorf("ns/op aggregate = %+v, want the fastest 2.5e9 over 3 samples", tg)
	}
	if tg.BytesPerOp == nil || *tg.BytesPerOp != 104670936 {
		t.Errorf("B/op = %v, want the minimum 104670936", tg.BytesPerOp)
	}
	if tg.AllocsPerOp == nil || *tg.AllocsPerOp != 23 {
		t.Errorf("allocs/op = %v, want the minimum 23", tg.AllocsPerOp)
	}
	// A measurement only some samples report is kept.
	if b := snap.Benchmarks["Broadcast/n=200"]; b.AllocsPerOp == nil || *b.AllocsPerOp != 0 || b.NsPerOp != 4000 {
		t.Errorf("Broadcast = %+v, want 4000 ns/op and 0 allocs/op", b)
	}
}

func TestCompareGate(t *testing.T) {
	base := &Snapshot{Benchmarks: map[string]Sample{
		"TruthGraph/n=10000": {NsPerOp: 100},
		"Broadcast/n=200":    {NsPerOp: 1000},
		"Runner/workers=1":   {NsPerOp: 50},
		"Retired":            {NsPerOp: 5},
	}}
	cur := &Snapshot{Benchmarks: map[string]Sample{
		"TruthGraph/n=10000": {NsPerOp: 140},  // +40%: regression
		"Broadcast/n=200":    {NsPerOp: 1200}, // +20%: within tolerance
		"Runner/workers=1":   {NsPerOp: 500},  // +900% but not gated
		"Fresh":              {NsPerOp: 7},    // not in baseline: note only
	}}
	gate := regexp.MustCompile(`Broadcast|TruthGraph`)
	regs, notes := compare(cur, base, gate, 0.30)
	if len(regs) != 1 || regs[0].Name != "TruthGraph/n=10000" {
		t.Fatalf("regressions = %+v, want exactly TruthGraph/n=10000", regs)
	}
	if regs[0].Ratio < 1.39 || regs[0].Ratio > 1.41 {
		t.Errorf("ratio = %v, want 1.4", regs[0].Ratio)
	}
	if len(notes) != 0 {
		// "Fresh" is not matched by the gate, so no notes at all here.
		t.Errorf("notes = %v, want none", notes)
	}

	// A gated key on only one side is a note, never a failure.
	cur.Benchmarks["TruthGraph/n=10000"] = Sample{NsPerOp: 100}
	base.Benchmarks["TruthGraphGone"] = Sample{NsPerOp: 1}
	cur.Benchmarks["TruthGraphNew"] = Sample{NsPerOp: 1}
	regs, notes = compare(cur, base, gate, 0.30)
	if len(regs) != 0 {
		t.Errorf("regressions = %+v, want none", regs)
	}
	if len(notes) != 2 {
		t.Errorf("notes = %v, want gone+new", notes)
	}

	// Everything matching with tolerance 0: equal values pass, any growth fails.
	regs, _ = compare(cur, base, regexp.MustCompile(`.`), 0)
	want := map[string]bool{"Broadcast/n=200": true, "Runner/workers=1": true}
	if len(regs) != len(want) {
		t.Fatalf("zero-tolerance regressions = %+v", regs)
	}
	for _, r := range regs {
		if !want[r.Name] {
			t.Errorf("unexpected regression %+v", r)
		}
	}
	// Worst ratio first.
	if regs[0].Name != "Runner/workers=1" {
		t.Errorf("not sorted worst-first: %+v", regs)
	}
}

func TestCompareGatesAllocs(t *testing.T) {
	allocs := func(n int64) *int64 { return &n }
	base := &Snapshot{Benchmarks: map[string]Sample{
		"E1Scale":    {NsPerOp: 100, AllocsPerOp: allocs(1000)},
		"Broadcast":  {NsPerOp: 100, AllocsPerOp: allocs(10)},
		"TruthGraph": {NsPerOp: 100}, // no allocs recorded: never gated on them
	}}
	cur := &Snapshot{Benchmarks: map[string]Sample{
		"E1Scale":    {NsPerOp: 100, AllocsPerOp: allocs(1400)}, // +40% allocs: regression
		"Broadcast":  {NsPerOp: 100, AllocsPerOp: allocs(12)},   // +20%: within tolerance
		"TruthGraph": {NsPerOp: 100, AllocsPerOp: allocs(9999)},
	}}
	regs, notes := compare(cur, base, regexp.MustCompile(`.`), 0.30)
	if len(regs) != 1 || regs[0].Name != "E1Scale" || regs[0].Metric != "allocs/op" {
		t.Fatalf("regressions = %+v, want exactly E1Scale allocs/op", regs)
	}
	if regs[0].Ratio < 1.39 || regs[0].Ratio > 1.41 {
		t.Errorf("ratio = %v, want 1.4", regs[0].Ratio)
	}
	if len(notes) != 0 {
		t.Errorf("notes = %v, want none", notes)
	}

	// A current run missing -benchmem against an alloc-recording baseline
	// is flagged as a note, not silently passed.
	cur.Benchmarks["E1Scale"] = Sample{NsPerOp: 100}
	regs, notes = compare(cur, base, regexp.MustCompile(`E1Scale`), 0.30)
	if len(regs) != 0 {
		t.Errorf("regressions = %+v, want none", regs)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "-benchmem") {
		t.Errorf("notes = %v, want a -benchmem warning", notes)
	}
}

// TestCompareGatesZeroAllocBaseline checks that a benchmark whose
// baseline allocates nothing fails the gate as soon as it allocates, and
// still passes while it stays at zero.
func TestCompareGatesZeroAllocBaseline(t *testing.T) {
	allocs := func(n int64) *int64 { return &n }
	base := &Snapshot{Benchmarks: map[string]Sample{
		"Broadcast/n=200":  {NsPerOp: 100, AllocsPerOp: allocs(0)},
		"Broadcast/n=2000": {NsPerOp: 100, AllocsPerOp: allocs(0)},
	}}
	cur := &Snapshot{Benchmarks: map[string]Sample{
		"Broadcast/n=200":  {NsPerOp: 100, AllocsPerOp: allocs(1)},
		"Broadcast/n=2000": {NsPerOp: 100, AllocsPerOp: allocs(0)},
	}}
	regs, notes := compare(cur, base, regexp.MustCompile(`Broadcast`), 0.30)
	if len(regs) != 1 || regs[0].Name != "Broadcast/n=200" || regs[0].Metric != "allocs/op" {
		t.Fatalf("regressions = %+v, want exactly Broadcast/n=200 allocs/op", regs)
	}
	if !math.IsInf(regs[0].Ratio, 1) {
		t.Errorf("ratio = %v, want +Inf", regs[0].Ratio)
	}
	if len(notes) != 0 {
		t.Errorf("notes = %v, want none", notes)
	}
}

func TestCompareSkipsZeroBaseline(t *testing.T) {
	base := &Snapshot{Benchmarks: map[string]Sample{"X": {NsPerOp: 0}}}
	cur := &Snapshot{Benchmarks: map[string]Sample{"X": {NsPerOp: 99}}}
	regs, notes := compare(cur, base, regexp.MustCompile(`.`), 0.3)
	if len(regs) != 0 || len(notes) != 1 {
		t.Errorf("regs=%v notes=%v, want a skip note and no failure", regs, notes)
	}
}

func TestResolveSHA(t *testing.T) {
	if got := resolveSHA("explicit"); got != "explicit" {
		t.Errorf("explicit -sha = %q", got)
	}
	t.Setenv("GITHUB_SHA", "env-sha")
	if got := resolveSHA(""); got != "env-sha" {
		t.Errorf("GITHUB_SHA fallback = %q, want env-sha", got)
	}
	// With neither flag nor env, the git fallback runs; in this repo it
	// yields a 40-hex SHA, and outside one it must degrade to "".
	t.Setenv("GITHUB_SHA", "")
	if got := resolveSHA(""); got != "" && len(got) != 40 {
		t.Errorf("git fallback = %q, want empty or a full SHA", got)
	}
}

func TestAppendTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.jsonl")
	snapA := &Snapshot{Schema: "snd-bench-snapshot/v1", GitSHA: "aaa", Time: "2026-08-08T00:00:00Z",
		Benchmarks: map[string]Sample{"Broadcast/n=200": {NsPerOp: 10, Iterations: 1, Samples: 1}}}
	snapB := &Snapshot{Schema: "snd-bench-snapshot/v1", GitSHA: "bbb", Time: "2026-08-08T01:00:00Z",
		Benchmarks: map[string]Sample{"Broadcast/n=200": {NsPerOp: 12, Iterations: 1, Samples: 1}}}
	for _, s := range []*Snapshot{snapA, snapB} {
		if err := appendTrajectory(path, s); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("trajectory lines = %d, want 2 (one per append):\n%s", len(lines), raw)
	}
	for i, want := range []string{"aaa", "bbb"} {
		var got Snapshot
		if err := json.Unmarshal([]byte(lines[i]), &got); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if got.GitSHA != want {
			t.Errorf("line %d git_sha = %q, want %q", i, got.GitSHA, want)
		}
		if got.Benchmarks["Broadcast/n=200"].NsPerOp == 0 {
			t.Errorf("line %d lost the benchmark payload: %s", i, lines[i])
		}
	}
}
