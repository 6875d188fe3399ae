// Command benchsnap converts `go test -bench` text output into a JSON
// performance snapshot, so CI can record a machine-readable perf
// baseline (BENCH_micro.json) alongside every PR's bench run.
//
//	go test -run '^$' -bench 'Broadcast|TruthGraph' -count=5 -benchtime=100x . | benchsnap -o BENCH_micro.json
//
// Each "BenchmarkName-P  iters  value ns/op [...]" result line becomes an
// entry keyed by the benchmark name with the "Benchmark" prefix and the
// trailing -GOMAXPROCS suffix stripped (the benchstat convention), so keys
// compare across machines with different core counts. A benchmark that
// appears more than once (-count>1) is aggregated to its fastest sample —
// the minimum ns/op is the standard low-noise estimator, since slowdowns
// come from interference but nothing runs faster than the code allows —
// and the snapshot records how many samples fed the aggregate. Header
// lines (goos/goarch/cpu) are carried into the snapshot for provenance,
// along with the environment needed to compare two runs: the GOMAXPROCS
// values read from the stripped suffixes (a name without one ran at 1),
// and the Go version and logical CPU count of the host benchsnap runs on —
// in CI the same host and toolchain that ran the benchmarks.
// Exit status is 1 when the input contains no benchmark results.
//
// With -compare, benchsnap additionally gates the freshly parsed snapshot
// against a committed baseline:
//
//	go test -run '^$' -bench ... -count=5 . | benchsnap -compare BENCH_micro.json -gate 'Broadcast|TruthGraph' -tolerance 0.30
//
// Every benchmark whose key matches the -gate regexp and whose ns/op —
// or allocs/op, when the baseline records it (run the benchmarks with
// -benchmem) — exceeds the baseline by more than the tolerance fraction
// is reported, and the exit status is 1. Keys missing from either side
// are noted but never fail the gate (new and retired benchmarks are not
// regressions).
//
// Snapshots are stamped with provenance: the producing commit (-sha, else
// $GITHUB_SHA, else `git rev-parse HEAD`) and the RFC3339 UTC run time.
// With -trajectory, the stamped snapshot is additionally appended as one
// compact JSON line to the named file (BENCH_trajectory.jsonl in CI), so
// successive runs accumulate a plottable performance history per commit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Sample is one benchmark's parsed measurements — the fastest of its
// result lines. ns/op is the headline number; B/op and allocs/op appear
// only when the benchmark reports them. Samples counts the result lines
// aggregated into the entry.
type Sample struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	Samples     int     `json:"samples"`
}

// Snapshot is the BENCH_micro.json document. GitSHA and Time stamp the
// run's provenance — which commit produced these numbers and when — and
// the environment fields say what they ran on, so a snapshot (or a
// trajectory line) is meaningful away from its checkout.
type Snapshot struct {
	Schema    string `json:"schema"`
	GitSHA    string `json:"git_sha,omitempty"`
	Time      string `json:"time,omitempty"` // RFC3339 UTC
	Goos      string `json:"goos,omitempty"`
	Goarch    string `json:"goarch,omitempty"`
	CPU       string `json:"cpu,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	NumCPU    int    `json:"num_cpu,omitempty"`
	// GOMAXPROCS lists the distinct values the result names carry,
	// ascending: one entry unless the run used -cpu with several values.
	GOMAXPROCS []int             `json:"gomaxprocs,omitempty"`
	Benchmarks map[string]Sample `json:"benchmarks"`
}

// parse reads `go test -bench` output and builds a snapshot. A benchmark
// appearing more than once (e.g. -count>1) keeps its minimum-ns/op result
// and counts the samples.
func parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Schema: "snd-bench-snapshot/v1", Benchmarks: make(map[string]Sample)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			snap.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		name, procs, sample, err := parseResult(line)
		if err != nil {
			return nil, err
		}
		if name == "" {
			continue
		}
		if i, found := slices.BinarySearch(snap.GOMAXPROCS, procs); !found {
			snap.GOMAXPROCS = slices.Insert(snap.GOMAXPROCS, i, procs)
		}
		if prev, ok := snap.Benchmarks[name]; ok {
			sample = minSample(prev, sample)
			sample.Samples = prev.Samples + 1
		}
		snap.Benchmarks[name] = sample
	}
	return snap, sc.Err()
}

// parseResult parses one result line into its key, its GOMAXPROCS and
// its sample. Lines that start with "Benchmark" but are not results (e.g.
// a bare name printed by -v) return name "".
func parseResult(line string) (string, int, Sample, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", 0, Sample{}, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, Sample{}, nil
	}
	s := Sample{Iterations: iters}
	sawNs := false
	// Measurements come in value/unit pairs after the iteration count.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, Sample{}, fmt.Errorf("benchsnap: bad value %q in %q", fields[i], line)
		}
		switch fields[i+1] {
		case "ns/op":
			s.NsPerOp = v
			sawNs = true
		case "B/op":
			n := int64(v)
			s.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			s.AllocsPerOp = &n
		}
	}
	if !sawNs {
		return "", 0, Sample{}, nil
	}
	s.Samples = 1
	name, procs := trimName(fields[0])
	return name, procs, s, nil
}

// minSample keeps the faster of two samples of one benchmark, wholesale:
// the fastest run's iteration count and memory numbers stay together.
func minSample(a, b Sample) Sample {
	if b.NsPerOp < a.NsPerOp {
		return b
	}
	return a
}

// Regression is one gated benchmark metric that got worse than the
// baseline allows.
type Regression struct {
	Name      string
	Metric    string // "ns/op" or "allocs/op"
	Base, Cur float64
	Ratio     float64 // Cur / Base
}

// compare gates the current snapshot against a baseline: every benchmark
// matching gate whose ns/op — or allocs/op, when both sides record it —
// exceeds base by more than the tolerance fraction is returned, sorted
// worst first. Keys present on only one side are collected into notes
// instead — they cannot regress.
func compare(cur, base *Snapshot, gate *regexp.Regexp, tolerance float64) (regs []Regression, notes []string) {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !gate.MatchString(name) {
			continue
		}
		b, ok := base.Benchmarks[name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: not in baseline (new benchmark?)", name))
			continue
		}
		c := cur.Benchmarks[name]
		if b.NsPerOp <= 0 {
			notes = append(notes, fmt.Sprintf("%s: baseline ns/op is %v, skipped", name, b.NsPerOp))
			continue
		}
		if c.NsPerOp > b.NsPerOp*(1+tolerance) {
			regs = append(regs, Regression{Name: name, Metric: "ns/op", Base: b.NsPerOp, Cur: c.NsPerOp, Ratio: c.NsPerOp / b.NsPerOp})
		}
		// Allocation regressions gate only when both runs report the
		// metric: a baseline recorded without -benchmem cannot be
		// compared, and a current run without it must not silently pass.
		// A 0-alloc baseline admits no tolerance: any allocation fails
		// it, with an infinite ratio.
		if b.AllocsPerOp != nil {
			if c.AllocsPerOp == nil {
				notes = append(notes, fmt.Sprintf("%s: baseline has allocs/op but this run does not (-benchmem missing?)", name))
			} else if ca, ba := float64(*c.AllocsPerOp), float64(*b.AllocsPerOp); ca > ba*(1+tolerance) {
				regs = append(regs, Regression{Name: name, Metric: "allocs/op", Base: ba, Cur: ca, Ratio: ca / ba})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	for name := range base.Benchmarks {
		if gate.MatchString(name) {
			if _, ok := cur.Benchmarks[name]; !ok {
				notes = append(notes, fmt.Sprintf("%s: in baseline but not in this run", name))
			}
		}
	}
	sort.Strings(notes)
	return regs, notes
}

// loadSnapshot reads a committed snapshot JSON.
func loadSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

// resolveSHA picks the commit to stamp: an explicit -sha wins, then the
// GITHUB_SHA env CI exports, then a `git rev-parse HEAD` against the
// working directory. Outside a checkout with none of those, the stamp is
// simply absent — provenance is best-effort, never a failure.
func resolveSHA(flagSHA string) string {
	if flagSHA != "" {
		return flagSHA
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// appendTrajectory appends the snapshot as one compact JSON line to path,
// creating the file if needed. Each CI bench run adds a line, so the file
// accumulates the repo's performance trajectory over commits — plottable
// with one jq invocation and mergeable by concatenation.
func appendTrajectory(path string, snap *Snapshot) error {
	line, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(line, '\n'))
	return err
}

// trimName strips the "Benchmark" prefix and the trailing -GOMAXPROCS
// suffix and returns both: "BenchmarkBroadcast/n=200-8" → "Broadcast/n=200",
// 8. go test leaves the suffix off when GOMAXPROCS is 1.
func trimName(name string) (string, int) {
	name = strings.TrimPrefix(name, "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], procs
		}
	}
	return name, 1
}

// stampEnv records the Go version and logical CPU count of this process.
func stampEnv(snap *Snapshot) {
	snap.GoVersion = runtime.Version()
	snap.NumCPU = runtime.NumCPU()
}

func main() {
	out := flag.String("o", "-", "output path for the JSON snapshot (- for stdout)")
	comparePath := flag.String("compare", "", "baseline snapshot to gate against (skips snapshot output unless -o is also set)")
	gate := flag.String("gate", ".", "regexp of benchmark keys the -compare gate applies to")
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional ns/op growth over the -compare baseline")
	sha := flag.String("sha", "", "git SHA to stamp into the snapshot (default: $GITHUB_SHA, then git rev-parse HEAD)")
	trajectory := flag.String("trajectory", "", "append the snapshot as one JSON line to this file (e.g. BENCH_trajectory.jsonl)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	snap, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchsnap: no benchmark results in input")
		os.Exit(1)
	}
	snap.GitSHA = resolveSHA(*sha)
	snap.Time = time.Now().UTC().Format(time.RFC3339)
	stampEnv(snap)

	// The trajectory line lands before gating, so a regressing run is
	// recorded too — the regression is exactly the data point worth keeping.
	if *trajectory != "" {
		if err := appendTrajectory(*trajectory, snap); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap: -trajectory:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchsnap: appended trajectory record to %s\n", *trajectory)
	}

	if *comparePath != "" {
		base, err := loadSnapshot(*comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		gateRe, err := regexp.Compile(*gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap: bad -gate:", err)
			os.Exit(1)
		}
		regs, notes := compare(snap, base, gateRe, *tolerance)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "benchsnap: note:", n)
		}
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "benchsnap: REGRESSION %s: %.0f %s vs baseline %.0f %s (%.2fx > allowed %.2fx)\n",
				r.Name, r.Cur, r.Metric, r.Base, r.Metric, r.Ratio, 1+*tolerance)
		}
		if len(regs) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchsnap: gate passed (%d benchmark(s) within %.0f%% of %s)\n",
			len(snap.Benchmarks), *tolerance*100, *comparePath)
		if *out == "-" {
			return // gating runs don't dump JSON to stdout unless asked
		}
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchsnap: wrote %d benchmark(s) to %s\n", len(snap.Benchmarks), *out)
}
