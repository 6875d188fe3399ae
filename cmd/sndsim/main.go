// Command sndsim runs a configurable secure neighbor discovery simulation
// and reports accuracy, overhead, and — when an attack is requested — the
// d-safety audit. With -trials > 1 the whole scenario is replicated across
// derived seeds on the internal/runner engine (-workers shards the
// replicates) and the report aggregates mean accuracy and violation counts.
//
// Any experiment from the internal/exp registry (the catalog sndfig and
// sndserve share) can also be run directly: -list names them and
// -exp <name> runs one, with -params supplying typed JSON overrides.
//
// Examples:
//
//	sndsim -nodes 200 -t 30                            # benign run, paper setup
//	sndsim -nodes 300 -range 25 -t 6 -compromise 3     # replicate 3 nodes at the corners
//	sndsim -nodes 200 -t 6 -m 2 -kill 0.3 -rounds 3    # aging network with updates
//	sndsim -nodes 200 -t 10 -trials 20 -workers 8      # 20 seeds, sharded
//	sndsim -list                                       # registered experiments
//	sndsim -exp safety -params '{"Trials":5}'          # one registry experiment
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"snd/internal/core"
	"snd/internal/exp"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/obs"
	"snd/internal/runner"
	"snd/internal/sim"
	"snd/internal/stats"
	"snd/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sndsim:", err)
		os.Exit(1)
	}
}

// scenario is the flag-configured experiment: deployment plus the optional
// attack, aging, and growth phases, replayable under any seed.
type scenario struct {
	Nodes      int
	Field      float64
	Range      float64
	Threshold  int
	MaxUpdates int
	Rounds     int
	RoundSize  int
	Kill       float64
	Compromise int
	Loss       float64
}

// build runs the scenario under one seed and returns the finished
// simulation plus the compromised victims (nil when no attack).
func (sc scenario) build(seed int64, rec *trace.Ring) (*sim.Simulation, []nodeid.ID, error) {
	params := sim.Params{
		Field:      geometry.NewField(sc.Field, sc.Field),
		Range:      sc.Range,
		Nodes:      sc.Nodes,
		Threshold:  sc.Threshold,
		MaxUpdates: sc.MaxUpdates,
		Seed:       seed,
		LossProb:   sc.Loss,
	}
	if rec != nil {
		params.Recorder = rec
	}
	s, err := sim.New(params)
	if err != nil {
		return nil, nil, err
	}
	var victims []nodeid.ID
	if sc.Compromise > 0 {
		victims, err = pickSpread(s, sc.Compromise)
		if err != nil {
			return nil, nil, err
		}
		if err := s.Compromise(victims...); err != nil {
			return nil, nil, err
		}
		inset := sc.Range / 4
		corners := []geometry.Point{
			{X: inset, Y: inset}, {X: sc.Field - inset, Y: inset},
			{X: inset, Y: sc.Field - inset}, {X: sc.Field - inset, Y: sc.Field - inset},
		}
		for _, v := range victims {
			for _, c := range corners {
				if _, err := s.PlantReplica(v, c); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	if sc.Kill > 0 {
		s.KillFraction(sc.Kill)
	}
	for i := 0; i < sc.Rounds; i++ {
		if err := s.DeployRound(sc.RoundSize); err != nil {
			return nil, nil, err
		}
	}
	return s, victims, nil
}

// bound is the d-safety audit bound implied by the update budget.
func (sc scenario) bound() float64 {
	if sc.MaxUpdates > 1 {
		return float64(sc.MaxUpdates+1) * sc.Range
	}
	return 2 * sc.Range
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sndsim", flag.ContinueOnError)
	var (
		nodes      = fs.Int("nodes", 200, "initial deployment size")
		field      = fs.Float64("field", 100, "square field side (m)")
		radioRange = fs.Float64("range", 50, "radio range R (m)")
		threshold  = fs.Int("t", 10, "validation threshold t")
		maxUpdates = fs.Int("m", 0, "binding-record update budget m")
		seed       = fs.Int64("seed", 1, "random seed")
		rounds     = fs.Int("rounds", 0, "extra deployment rounds")
		roundSize  = fs.Int("roundsize", 40, "nodes per extra round")
		kill       = fs.Float64("kill", 0, "fraction of nodes to battery-kill before extra rounds")
		compromise = fs.Int("compromise", 0, "number of nodes to compromise and replicate at the corners")
		loss       = fs.Float64("loss", 0, "radio packet loss probability")
		trials     = fs.Int("trials", 1, "scenario replicates over derived seeds (aggregate report when > 1)")
		workers    = fs.Int("workers", 0, "trial execution workers (0 = GOMAXPROCS)")
		traceN     = fs.Int("trace", 0, "print the last N protocol events and per-kind counts")
		showStats  = fs.Bool("stats", false, "print protocol event counts (single run) or engine latency quantiles (sweep)")
		showMap    = fs.Bool("map", false, "print an ASCII map of the field (o=benign, X=compromised, R=replica, +=dead)")
		expName    = fs.String("exp", "", "run a registered experiment from the internal/exp catalog (see -list)")
		list       = fs.Bool("list", false, "list registered experiments and exit")
		expParams  = fs.String("params", "", "experiment params as JSON for -exp (unknown fields are errors)")
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
	if *expName != "" {
		// Registry mode: dispatch through the shared experiment catalog.
		// The -trials default (1) belongs to scenario mode; the experiment's
		// own default applies unless the flag was passed explicitly.
		trialsOverride := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "trials" {
				trialsOverride = *trials
			}
		})
		bound, err := exp.DecodeCLI(*expName, *expParams, trialsOverride, *seed)
		if err != nil {
			return err
		}
		eng := runner.New(runner.Options{Workers: *workers})
		res, err := bound.Run(ctx, eng)
		if err != nil {
			return fmt.Errorf("%s: %w", *expName, err)
		}
		exp.WarnIfDegraded(w, *expName, res)
		fmt.Fprintln(w, res.Render())
		return nil
	}
	if *expParams != "" {
		return fmt.Errorf("-params requires -exp")
	}

	sc := scenario{
		Nodes: *nodes, Field: *field, Range: *radioRange, Threshold: *threshold,
		MaxUpdates: *maxUpdates, Rounds: *rounds, RoundSize: *roundSize,
		Kill: *kill, Compromise: *compromise, Loss: *loss,
	}
	if *trials > 1 {
		return runSweep(ctx, w, sc, *seed, *trials, *workers, *showStats)
	}

	var rec *trace.Ring
	if *traceN > 0 {
		rec = trace.NewRing(*traceN)
	}
	s, victims, err := sc.build(*seed, rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "deployed %d nodes in %.0fx%.0f m, R=%.0f m, t=%d, m=%d\n",
		*nodes, *field, *field, *radioRange, *threshold, *maxUpdates)
	if sc.Compromise > 0 {
		fmt.Fprintf(w, "compromised %v; replicas planted at all corners\n", victims)
	}
	if sc.Kill > 0 {
		fmt.Fprintf(w, "battery death: %d nodes\n", int(sc.Kill*float64(sc.Nodes)))
	}

	fmt.Fprintf(w, "\naccuracy (benign functional/actual relations): %.4f\n", s.Accuracy())
	fmt.Fprintf(w, "center-node accuracy:                          %.4f\n", s.CenterAccuracy())
	o := s.Overhead()
	fmt.Fprintf(w, "\nper-node overhead: %.1f msgs, %.0f bytes, %.1f hash ops, %.0f bytes stored (max %d), %.0f uJ radio\n",
		o.MessagesPerNode, o.BytesPerNode, o.HashOpsPerNode, o.StorageMeanBytes, o.StorageMaxBytes, o.EnergyPerNode)
	c := s.Medium().Counters()
	fmt.Fprintf(w, "radio: %d sent, %d delivered, %d lost, %d rejected protocol msgs\n",
		c.Sent, c.Delivered, c.LostRandom+c.LostJammed+c.LostOverflow, s.ProtocolErrors())

	if sc.Compromise > 0 {
		fmt.Fprintf(w, "\nd-safety audit (bound %.0f m):\n", sc.bound())
		reports := s.AuditSafety(sc.bound())
		for _, r := range reports {
			fmt.Fprintf(w, "  %v\n", r)
		}
		fmt.Fprintf(w, "violations: %d\n", core.Violations(reports))
	}
	if *showMap {
		fmt.Fprintf(w, "\n%s", fieldMap(s, 48, 24))
	}
	if rec != nil {
		fmt.Fprintf(w, "\nprotocol trace (%d events total; last %d shown):\n", rec.Total(), len(rec.Events()))
		fmt.Fprint(w, rec.Dump())
		fmt.Fprintln(w, "events by kind:")
		for _, kind := range trace.Kinds() {
			if n := rec.Count(kind); n > 0 {
				fmt.Fprintf(w, "  %-18s %d\n", kind, n)
			}
		}
	}
	if *showStats {
		// The always-on counter bridge: per-kind tallies without a recorder.
		counts := s.EventCounts()
		fmt.Fprintf(w, "\nprotocol events (%d total):\n", counts.Total())
		for _, kind := range trace.Kinds() {
			if n := counts.Count(kind); n > 0 {
				fmt.Fprintf(w, "  %-18s %d\n", kind, n)
			}
		}
	}
	return nil
}

// sweepSample is one replicate's headline numbers.
type sweepSample struct {
	Accuracy   float64
	Center     float64
	Msgs       float64
	Violations int
}

// runSweep replicates the scenario across derived seeds on the engine and
// prints the aggregate report. Ctrl-C cancels the sweep cooperatively: the
// replicates finished so far are aggregated and reported before the
// interruption error is returned.
func runSweep(ctx context.Context, w io.Writer, sc scenario, seed int64, trials, workers int, showStats bool) error {
	eng := runner.New(runner.Options{Workers: workers})
	out, err := runner.MapCtx(ctx, eng, runner.Spec{
		Experiment: "sndsim", Params: sc, Points: 1, Trials: trials,
	}, func(_, trial int) (sweepSample, error) {
		s, _, err := sc.build(runner.TrialSeed(seed, 0, trial), nil)
		if err != nil {
			return sweepSample{}, err
		}
		sample := sweepSample{
			Accuracy: s.Accuracy(),
			Center:   s.CenterAccuracy(),
			Msgs:     s.Overhead().MessagesPerNode,
		}
		if sc.Compromise > 0 {
			sample.Violations = core.Violations(s.AuditSafety(sc.bound()))
		}
		return sample, nil
	})
	if err != nil && (out == nil || !out.Cancelled) {
		return err
	}
	if out.Cancelled && len(out.Points[0]) == 0 {
		return fmt.Errorf("interrupted before any trial finished: %w", err)
	}
	var accs, centers, msgs []float64
	violations := 0
	for _, sample := range out.Points[0] {
		accs = append(accs, sample.Accuracy)
		centers = append(centers, sample.Center)
		msgs = append(msgs, sample.Msgs)
		violations += sample.Violations
	}
	if out.Cancelled {
		fmt.Fprintf(w, "interrupted: %d/%d trials finished before cancellation; aggregating the partial sweep\n",
			len(out.Points[0]), trials)
	}
	fmt.Fprintf(w, "sweep: %d trials of %d nodes in %.0fx%.0f m, R=%.0f m, t=%d (workers=%d)\n",
		len(accs), sc.Nodes, sc.Field, sc.Field, sc.Range, sc.Threshold, eng.Workers())
	acc := stats.Summarize(accs)
	fmt.Fprintf(w, "accuracy:        %.4f ± %.4f\n", acc.Mean, acc.CI95())
	cen := stats.Summarize(centers)
	fmt.Fprintf(w, "center accuracy: %.4f ± %.4f\n", cen.Mean, cen.CI95())
	fmt.Fprintf(w, "msgs/node:       %.1f\n", stats.Mean(msgs))
	if sc.Compromise > 0 {
		fmt.Fprintf(w, "d-safety violations across trials (bound %.0f m): %d\n", sc.bound(), violations)
	}
	fmt.Fprintf(w, "engine: %v, wall %v\n", eng.Stats(), out.Elapsed.Round(time.Millisecond))
	if showStats {
		fmt.Fprintf(w, "trial latency: %s\n",
			obs.DurationQuantiles(eng.Metrics().TrialDuration.With("sndsim")))
		fmt.Fprintf(w, "queue wait:    %s\n",
			obs.DurationQuantiles(eng.Metrics().QueueWait.With("sndsim")))
	}
	if out.Cancelled {
		return fmt.Errorf("sweep interrupted after %d/%d trials: %w", len(out.Points[0]), trials, err)
	}
	return nil
}

// fieldMap renders the deployment as an ASCII grid.
func fieldMap(s *sim.Simulation, cols, rows int) string {
	field := s.Params().Field
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", cols))
	}
	compromised := s.Attacker().Compromised()
	plot := func(pos geometry.Point, mark byte) {
		c := int(pos.X / field.Width() * float64(cols))
		r := int(pos.Y / field.Height() * float64(rows))
		if c >= cols {
			c = cols - 1
		}
		if r >= rows {
			r = rows - 1
		}
		// Later marks override earlier ones only by severity order
		// . < o < + < X < R.
		severity := map[byte]int{'.': 0, 'o': 1, '+': 2, 'X': 3, 'R': 4}
		if severity[mark] > severity[grid[r][c]] {
			grid[r][c] = mark
		}
	}
	for _, d := range s.Layout().Devices() {
		switch {
		case d.Replica:
			plot(d.Pos, 'R')
		case compromised.Contains(d.Node):
			plot(d.Pos, 'X')
		case !d.Alive:
			plot(d.Pos, '+')
		default:
			plot(d.Pos, 'o')
		}
	}
	var b strings.Builder
	b.WriteString("field map (o benign, X compromised, R replica, + dead):\n")
	for i := rows - 1; i >= 0; i-- {
		b.Write(grid[i])
		b.WriteByte('\n')
	}
	return b.String()
}

// pickSpread selects k victims spread across deployment order.
func pickSpread(s *sim.Simulation, k int) ([]nodeid.ID, error) {
	var candidates []nodeid.ID
	for _, d := range s.Layout().Devices() {
		if !d.Replica && d.Alive {
			candidates = append(candidates, d.Node)
		}
	}
	if len(candidates) < k {
		return nil, fmt.Errorf("only %d nodes available for %d compromises", len(candidates), k)
	}
	step := len(candidates) / k
	victims := make([]nodeid.ID, 0, k)
	for i := 0; i < k; i++ {
		victims = append(victims, candidates[i*step])
	}
	return victims, nil
}
