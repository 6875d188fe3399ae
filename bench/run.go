package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// childSlack is how long a workload process may run past its window
// (set-up, warm-up, probes) before it is killed.
const childSlack = 150 * time.Second

// setupSamples is how many times an untraced run sets its workload up: the
// measured process plus setupSamples-1 set-up-only ones. setup_s is their
// median, since one set-up is too short to repeat on its own.
const setupSamples = 5

// Options configures one benchmark invocation.
type Options struct {
	Workloads []Workload
	Seed      int64
	// Seconds is the measured window of the untraced run. A traced run
	// gives each of its two processes half of it.
	Seconds float64
	// MaxOps, when positive, also ends a window after that many ops (the
	// self-test bounds its toy runs this way).
	MaxOps int
	Trace  bool
	// Sndserve is the sndserve binary service-jobs starts.
	Sndserve string
	// Log receives the human-readable report.
	Log io.Writer
}

// Result is one workload's outcome.
type Result struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	Extras    map[string]Value `json:"extras,omitempty"`
	Load1     float64          `json:"load1"`
	Failures  []string         `json:"failures,omitempty"`
	Spans     []Span           `json:"-"`
}

// Line is the one-line summary a run ends with: exactly correct,
// attempted, failed and metrics.
type Line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Summarize folds results into one Line. A single workload's metrics keep
// their names; several are prefixed "workload/".
func Summarize(results []Result) Line {
	l := Line{Correct: true, Metrics: map[string]Value{}}
	for _, r := range results {
		l.Correct = l.Correct && r.Correct
		l.Attempted += r.Attempted
		l.Failed += r.Failed
		for name, v := range r.Metrics {
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			l.Metrics[name] = v
		}
	}
	return l
}

// File is what -o writes and -compare reads.
type File struct {
	Env       Env      `json:"env"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Workloads []Result `json:"workloads"`
}

// Run runs each workload in its own processes and reports on o.Log.
func Run(o Options) ([]Result, error) {
	var out []Result
	for _, w := range o.Workloads {
		r, err := runWorkload(o, w)
		if err != nil {
			return out, fmt.Errorf("%s: %w", w.Name, err)
		}
		report(o.Log, o, r)
		out = append(out, r)
	}
	return out, nil
}

func runWorkload(o Options, w Workload) (Result, error) {
	res := Result{Workload: w.Name, Load1: load1(), Metrics: map[string]Value{}, Extras: map[string]Value{}}
	base := spec{Workload: w.Name, Size: w.Size, Seed: o.Seed, Seconds: o.Seconds, MaxOps: o.MaxOps, Sndserve: o.Sndserve}
	var children []childResult
	spawnOne := func(s spec) (childResult, error) {
		c, err := spawn(s)
		if err == nil {
			children = append(children, c)
		}
		return c, err
	}
	if !o.Trace {
		// The last process is the measured run; the others only set up.
		var setups, setupsWall []float64
		for i := range setupSamples {
			s := base
			s.SetupOnly = i < setupSamples-1
			c, err := spawnOne(s)
			if err != nil {
				return res, err
			}
			setups = append(setups, c.SetupS*refNominalMs/slices.Min(c.SetupRefMs))
			setupsWall = append(setupsWall, c.SetupS)
		}
		c := children[len(children)-1]
		res.Metrics = map[string]Value{
			"trials_per_s": {float64(c.Trials) / c.ScaledWindowS, "1/s"},
			"op_p50_ms":    {median(c.scaledOpMs()), "ms"},
			"peak_rss_mb":  {c.PeakRSSMB, "MB"},
			"setup_s":      {median(setups), "s"},
		}
		for k, v := range c.Extras {
			res.Extras[k] = v
		}
		res.Extras["ops"] = Value{float64(len(c.OpMs)), "count"}
		res.Extras["host_speed"] = Value{c.ScaledWindowS / c.WindowS, "1"}
		res.Extras["trials_per_s_wall"] = Value{float64(c.Trials) / c.WindowS, "1/s"}
		res.Extras["op_p50_wall_ms"] = Value{median(c.OpMs), "ms"}
		res.Extras["setup_wall_s"] = Value{median(setupsWall), "s"}
	} else {
		u, t := base, base
		u.Seconds /= 2
		t.Seconds /= 2
		t.Traced = true
		uc, err := spawnOne(u)
		if err != nil {
			return res, err
		}
		tc, err := spawnOne(t)
		if err != nil {
			return res, err
		}
		hu, ht := median(uc.OpScale), median(tc.OpScale)
		for _, m := range Layer {
			v := 0.0
			switch m.Name {
			case "trial.compute_ms":
				v = uc.TrialMs * hu
			case "proc.cpu_ms_per_trial":
				v = 1e3 * uc.CPUS / float64(uc.Trials) * hu
			case "bench.trace_overhead_pct":
				v = 100 * (median(tc.scaledOpMs())/median(uc.scaledOpMs()) - 1)
			default:
				samples := tc.Layer[m.Name]
				if len(samples) == 0 {
					res.Failures = append(res.Failures, "traced run recorded no samples of "+m.Name)
				}
				v = median(samples)
				if m.Unit == "ms" || m.Unit == "us" {
					v *= ht
				}
			}
			res.Metrics[m.Name] = Value{v, m.Unit}
		}
		for k, v := range uc.Extras {
			res.Extras[k] = v
		}
		res.Extras["host_speed"] = Value{ht, "1"}
		res.Spans = tc.Spans
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Failures = append(res.Failures, name+" was not measured")
			res.Metrics[name] = Value{0, v.Unit}
		}
	}
	for _, c := range children {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
		res.Failures = append(res.Failures, c.Failures...)
	}
	if res.Attempted > 0 {
		res.Extras["fail_ratio"] = Value{float64(res.Failed) / float64(res.Attempted), "1"}
	}
	res.Correct = len(res.Failures) == 0 && res.Failed == 0
	return res, nil
}

// scaledOpMs are the op latencies on the recorded host.
func (c childResult) scaledOpMs() []float64 {
	out := make([]float64, len(c.OpMs))
	for i, v := range c.OpMs {
		out[i] = v * c.OpScale[i]
	}
	return out
}

// spawn runs one workload process: this executable again, with the spec
// in its environment (RunChildIfRequested picks it up).
func spawn(s spec) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(s.Seconds*float64(time.Second))+childSlack)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.Spawned = time.Now()
	raw, err := json.Marshal(s)
	if err != nil {
		return childResult{}, err
	}
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("workload process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var c childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		return childResult{}, fmt.Errorf("workload process result: %w", err)
	}
	return c, nil
}

// report prints a workload's metrics with their units, its extras, its
// correctness and, for a traced run, each span name's self time.
func report(w io.Writer, o Options, r Result) {
	mode := "untraced"
	if o.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %gs, %s, load1 %.2f)\n", r.Workload, o.Seed, o.Seconds, mode, r.Load1)
	printValues(w, r.Metrics)
	if len(r.Extras) > 0 {
		fmt.Fprintln(w, "  -- workload-specific")
		printValues(w, r.Extras)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
	if len(r.Spans) > 0 {
		fmt.Fprintln(w, "  -- self time by span")
		writeSelfTimes(w, r.Spans)
	}
}

func printValues(w io.Writer, vs map[string]Value) {
	names := make([]string, 0, len(vs))
	for n := range vs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", n, vs[n].Value, vs[n].Unit)
	}
}
