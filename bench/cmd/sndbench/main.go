// Command sndbench is the repository benchmark: it runs the named
// workloads (see bench/README.md), each in its own processes, prints every
// metric with its unit, checks the outputs, and ends its standard output
// with one JSON line {"correct","attempted","failed","metrics"}.
//
//	bash bench/run.sh -seed 1 -o out.json          all workloads, untraced
//	bash bench/run.sh -workload dense-paper -trace 1 -spans spans.jsonl
//	bash bench/run.sh -compare runs/parent runs/change
//
// bench/run.sh builds sndbench and sndserve from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"snd/bench"
)

func main() {
	bench.RunChildIfRequested()
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all)")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 25, "measured window of one run, in seconds")
		traceOn  = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		spans    = flag.String("spans", "", "traced run: also write every span as a JSON line to this file")
		outFile  = flag.String("o", "", "write the results, with the environment stamp, to this JSON file")
		compare  = flag.String("compare", "", "compare result files: -compare DIR_A DIR_B (A is the parent)")
		sndserve = flag.String("sndserve", "", "sndserve binary for service-jobs (default: next to this executable)")
	)
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: sndbench -compare DIR_A DIR_B")
			return 2
		}
		if err := bench.Compare(os.Stdout, *compare, flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "sndbench:", err)
			return 2
		}
		return 0
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "sndbench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "sndbench: -seconds must be positive")
		return 2
	}
	workloads := bench.Workloads
	if *workload != "" {
		w, ok := bench.WorkloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "sndbench: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []bench.Workload{w}
	}
	if *sndserve == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sndbench:", err)
			return 2
		}
		*sndserve = filepath.Join(filepath.Dir(exe), "sndserve")
	}

	env := bench.Stamp()
	stamp, _ := json.Marshal(env) // a struct of strings and numbers always encodes
	fmt.Fprintf(os.Stderr, "env %s\n", stamp)
	results, err := bench.Run(bench.Options{
		Workloads: workloads,
		Seed:      *seed,
		Seconds:   *seconds,
		Trace:     *traceOn == 1,
		Sndserve:  *sndserve,
		Log:       os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sndbench:", err)
		return 2
	}
	if *spans != "" {
		if err := writeSpans(*spans, results); err != nil {
			fmt.Fprintln(os.Stderr, "sndbench:", err)
			return 2
		}
	}
	if *outFile != "" {
		f := bench.File{Env: env, Seed: *seed, Seconds: *seconds, Trace: *traceOn == 1, Workloads: results}
		raw, err := json.MarshalIndent(f, "", "  ")
		if err == nil {
			err = os.WriteFile(*outFile, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sndbench: -o:", err)
			return 2
		}
	}
	line := bench.Summarize(results)
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sndbench:", err)
		return 2
	}
	fmt.Println(string(raw))
	if !line.Correct {
		return 1
	}
	return 0
}

func writeSpans(path string, results []bench.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, r := range results {
		if err := bench.WriteJSONL(f, r.Spans); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
