// Command sndfig regenerates every figure and table of the paper's
// evaluation (plus the theorem audits this reproduction adds). Experiments
// come from the internal/exp registry — the same catalog sndsim and
// sndserve dispatch through — so -list always matches what the other
// entrypoints accept. Each experiment prints the same rows/series the
// paper reports. Trials execute on the internal/runner engine: -workers
// shards them across a bounded pool, and -store memoizes completed trials
// in a blob store (file://dir, s3://bucket/prefix) so re-running a sweep
// with the same parameters is nearly free.
//
// Ctrl-C (or SIGTERM) cancels the in-progress sweep cooperatively: no new
// trials are scheduled, completed trials stay in the cache, and sndfig
// exits reporting how far it got — re-running the same command resumes
// from the cache. If any sweep drops trials to the panic-retry budget, a
// warning names the degraded cells instead of presenting a biased table
// as clean.
//
// Usage:
//
//	sndfig -list                  # every registered experiment, one per line
//	sndfig -fig 3                 # Figure 3 (accuracy vs threshold)
//	sndfig -fig 4                 # Figure 4 (accuracy vs density)
//	sndfig -exp safety            # any registered experiment by name
//	sndfig -exp ablation          # alias: noise + scheme + engines
//	sndfig -exp fig3 -params '{"Nodes":400}'        # typed JSON overrides
//	sndfig -all                   # everything, registration order
//	sndfig -all -workers 8 -store file://$HOME/.cache/snd   # sharded + cached
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"snd/internal/exp"
	"snd/internal/obs"
	"snd/internal/runner"
	"snd/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sndfig:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sndfig", flag.ContinueOnError)
	var (
		fig      = fs.Int("fig", 0, "paper figure to regenerate (3 or 4)")
		expt     = fs.String("exp", "", "registered experiment name (see -list), or the 'ablation' alias")
		all      = fs.Bool("all", false, "run every registered experiment")
		list     = fs.Bool("list", false, "list registered experiments and exit")
		params   = fs.String("params", "", "experiment params as JSON (single experiment only; unknown fields are errors)")
		format   = fs.String("format", "text", "table output format: text or csv")
		trials   = fs.Int("trials", 0, "trial count override (0 = experiment default)")
		seed     = fs.Int64("seed", 1, "base random seed")
		workers  = fs.Int("workers", 0, "trial execution workers (0 = GOMAXPROCS)")
		storeURL = fs.String("store", "", "blob store for completed trials: mem://, file://dir, or s3://bucket/prefix; empty = no cache")
		show     = fs.Bool("stats", false, "print engine counters and trial latency quantiles when done")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range exp.Names() {
			fmt.Fprintln(w, name)
		}
		return nil
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}

	// Resolve the selection to registered names.
	var names []string
	switch {
	case *all:
		for _, e := range exp.All() {
			names = append(names, e.Name())
		}
	case *fig == 3:
		names = []string{"fig3"}
	case *fig == 4:
		names = []string{"fig4"}
	case *fig != 0:
		return fmt.Errorf("unknown figure %d (3 or 4)", *fig)
	case *expt == "ablation":
		names = []string{"noise", "scheme", "engines"}
	case *expt != "":
		names = []string{*expt}
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -fig, -exp, -all or -list")
	}
	if *params != "" && len(names) != 1 {
		return fmt.Errorf("-params applies to a single experiment, not %d", len(names))
	}

	var cache store.Blob
	if *storeURL != "" {
		var err error
		if cache, err = store.Open(*storeURL); err != nil {
			return fmt.Errorf("-store: %w", err)
		}
	}
	eng := runner.New(runner.Options{Workers: *workers, Cache: cache})

	emit := func(res exp.Result) {
		if t, ok := res.(exp.Tabular); ok && *format == "csv" {
			tab := t.Table()
			fmt.Fprintf(w, "# %s\n%s\n", tab.Title, tab.CSV())
			return
		}
		fmt.Fprintln(w, res.Render())
	}
	// fail wraps an experiment error; an interruption additionally reports
	// how much work completed, since the trial cache keeps it for a re-run.
	fail := func(name string, err error) error {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("%s: interrupted mid-sweep (%s); completed trials are cached, re-run to resume", name, eng.Stats())
		}
		return fmt.Errorf("%s: %w", name, err)
	}

	for _, name := range names {
		bound, err := exp.DecodeCLI(name, *params, *trials, *seed)
		if err != nil {
			return err
		}
		res, err := bound.Run(ctx, eng)
		if err != nil {
			return fail(name, err)
		}
		exp.WarnIfDegraded(w, name, res)
		emit(res)
	}

	if *show {
		fmt.Fprintf(w, "engine: %v over %d workers\n", eng.Stats(), eng.Workers())
		// Per-experiment latency quantiles from the engine's trial-duration
		// histograms — the same series /metrics exposes on sndserve.
		eng.Metrics().TrialDuration.Each(func(labels []string, h *obs.Histogram) {
			if h.Count() == 0 {
				return
			}
			fmt.Fprintf(w, "  %-14s trial latency %s\n", labels[0], obs.DurationQuantiles(h))
		})
	}
	return nil
}
