package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"

	"snd"
	"snd/internal/core"
	"snd/internal/exp"
	"snd/internal/runner"
	"snd/internal/verify"
)

// childEnv carries a workload process's spec. A process started with it
// set runs one workload, prints a childResult and exits.
const childEnv = "SNDBENCH_CHILD"

const (
	// probeTrials is how many probe trials a traced run times its layer
	// probes on, after the measured window.
	probeTrials = 3
	// stagingNodes is the attack probe's staging round, the size compare
	// uses at its default 150 nodes.
	stagingNodes = 15
	// codecReps repeats the record codec probe so one call's time is
	// well above the clock's resolution.
	codecReps = 200
	// setupRefSamples is how many reference samples follow set-up.
	setupRefSamples = 3
)

// spec is what the orchestrator hands one workload process.
type spec struct {
	Workload  string    `json:"workload"`
	Size      Size      `json:"size"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	MaxOps    int       `json:"max_ops,omitempty"`
	Traced    bool      `json:"traced,omitempty"`
	SetupOnly bool      `json:"setup_only,omitempty"`
	Spawned   time.Time `json:"spawned"`
	Sndserve  string    `json:"sndserve,omitempty"`
}

// childResult is what a workload process reports on its last stdout line.
// Times are raw wall times; the orchestrator scales them by the reference
// kernel samples (see calib.go).
type childResult struct {
	SetupS float64 `json:"setup_s"`
	// SetupRefMs are reference kernel samples taken right after set-up.
	SetupRefMs []float64 `json:"setup_ref_ms"`
	// OpMs are the window's op latencies, and OpScale the host speed
	// around each op (speedAround): the op's time on the recorded host is
	// OpMs[i]*OpScale[i].
	OpMs      []float64 `json:"op_ms,omitempty"`
	OpScale   []float64 `json:"op_scale,omitempty"`
	Trials    int       `json:"trials"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// WindowS is the time the window's ops ran, reference samples
	// excluded, and ScaledWindowS the same on the recorded host.
	WindowS       float64 `json:"window_s"`
	ScaledWindowS float64 `json:"scaled_window_s"`
	// PeakRSSMB is the peak RSS, at the end of the window, of the process
	// that ran the trials: this one, or sndserve for service-jobs.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	// CPUS is the CPU time of the process that ran the window's trials
	// (this one, or sndserve for service-jobs).
	CPUS    float64 `json:"cpu_s"`
	TrialMs float64 `json:"trial_compute_ms"`
	// Layer holds every sample of each per-layer metric; the orchestrator
	// reports their medians.
	Layer    map[string][]float64 `json:"layer,omitempty"`
	Extras   map[string]Value     `json:"extras,omitempty"`
	Failures []string             `json:"failures,omitempty"`
	Spans    []Span               `json:"spans,omitempty"`
	// Digests are the output digests of ops 0, 1, ... (see golden.go).
	Digests []string `json:"digests,omitempty"`
}

// RunChildIfRequested runs the workload named by the SNDBENCH_CHILD
// environment variable and exits, when it is set; otherwise it returns at
// once. sndbench's main and the self-test's TestMain call it first.
func RunChildIfRequested() {
	raw, ok := os.LookupEnv(childEnv)
	if !ok {
		return
	}
	var s spec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		fmt.Fprintln(os.Stderr, "sndbench: bad child spec:", err)
		os.Exit(2)
	}
	res, err := runChild(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sndbench: %s: %v\n", s.Workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sndbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	os.Exit(0)
}

// run is one workload process's state.
type run struct {
	spec
	res       childResult
	tr        *tracer
	golden    []string
	stretches []stretch
}

func runChild(s spec) (childResult, error) {
	r := &run{spec: s, golden: goldens[goldenKey(s.Workload, s.Size, s.Seed)]}
	r.res.Layer = map[string][]float64{}
	r.res.Extras = map[string]Value{}
	if s.Traced {
		r.tr = newTracer()
	}
	var err error
	switch s.Workload {
	case DensePaper, SparseLarge:
		r.res.PeakRSSMB = r.serial(r.trialOp, nil)
		if !s.SetupOnly {
			r.res.TrialMs = mean(r.res.OpMs)
		}
	case AttackSweep:
		err = r.attack()
	case ServiceJobs:
		err = r.service()
	default:
		return childResult{}, fmt.Errorf("unknown workload %q", s.Workload)
	}
	if err != nil {
		return childResult{}, err
	}
	if s.Traced && !s.SetupOnly {
		for j := 1; j <= probeTrials; j++ {
			r.probe(j)
		}
	}
	r.res.Spans = r.tr.all()
	return r.res, nil
}

// serial runs op(0) as the warm-up that closes set-up, then op(1),
// op(2), ... each followed by a reference kernel sample, until the window
// is over. windowStart, when set, runs just before the window opens. It
// returns the process's peak RSS at the end of the window (0 for a
// set-up-only process). Since each kernel sample first collects the
// garbage of the op before it, every op starts on a clean heap, and the
// peak is that of the costliest single op, not of GC timing across ops.
func (r *run) serial(op func(i int) (time.Duration, int), windowStart func()) (peakRSS float64) {
	op(0)
	r.res.SetupS = time.Since(r.Spawned).Seconds()
	c := r.calibrate()
	if r.SetupOnly {
		return 0
	}
	if windowStart != nil {
		windowStart()
	}
	start := time.Now()
	for i := 1; r.more(i-1, start); i++ {
		cpu0, _ := selfUsage()
		d, n := op(i)
		cpu1, _ := selfUsage()
		r.res.CPUS += cpu1 - cpu0
		r.res.Trials += n
		r.segment(d, c.run(), ms(d))
	}
	r.scaleWindow()
	_, peakRSS = selfUsage()
	return peakRSS
}

// stretch is one stretch of the window: its wall time, the reference
// kernel sample taken right after it, and the latencies of the ops it
// completed.
type stretch struct {
	ms, refMs float64
	opMs      []float64
}

// segment records one stretch of the window that took d.
func (r *run) segment(d time.Duration, refMs float64, opMs ...float64) {
	r.stretches = append(r.stretches, stretch{ms(d), refMs, opMs})
}

// scaleWindow totals the window's stretches and lists their ops, each
// with the host speed around its stretch (speedAround); the sample before
// the first stretch is the last one after set-up.
func (r *run) scaleWindow() {
	before := 0.0
	if n := len(r.res.SetupRefMs); n > 0 {
		before = r.res.SetupRefMs[n-1]
	}
	for i, s := range r.stretches {
		next := 0.0
		if i+1 < len(r.stretches) {
			next = r.stretches[i+1].refMs
		}
		h := speedAround(before, s.refMs, next)
		before = s.refMs
		r.res.WindowS += s.ms / 1e3
		r.res.ScaledWindowS += s.ms / 1e3 * h
		for _, v := range s.opMs {
			r.res.OpMs = append(r.res.OpMs, v)
			r.res.OpScale = append(r.res.OpScale, h)
		}
	}
}

// calibrate takes the reference samples that follow set-up and returns
// the kernel for the window's samples.
func (r *run) calibrate() *calib {
	c := newCalib()
	for range setupRefSamples {
		r.res.SetupRefMs = append(r.res.SetupRefMs, c.run())
	}
	return c
}

// more reports whether another op fits: always after none, never past
// MaxOps, otherwise while the window lasts.
func (r *run) more(done int, start time.Time) bool {
	switch {
	case done == 0:
		return true
	case r.MaxOps > 0 && done >= r.MaxOps:
		return false
	}
	return time.Since(start).Seconds() < r.Seconds
}

func (r *run) fail(format string, a ...any) {
	r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, a...))
}

func (r *run) opFailed(trace string, err error) {
	r.res.Failed++
	r.fail("%s: %v", trace, err)
}

// sample records one value of a per-layer metric; untraced runs record
// none.
func (r *run) sample(name string, v float64) {
	if r.tr != nil {
		r.res.Layer[name] = append(r.res.Layer[name], v)
	}
}

// extra records a workload-specific number; one that could not be
// measured (NaN, e.g. a median of no repeats) is left out.
func (r *run) extra(name string, v float64, unit string) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.res.Extras[name] = Value{Value: v, Unit: unit}
	}
}

// checkGolden records op i's digest and compares it with the committed
// one, if any.
func (r *run) checkGolden(i int, digest string) {
	if i == len(r.res.Digests) {
		r.res.Digests = append(r.res.Digests, digest)
	}
	if i < len(r.golden) && r.golden[i] != digest {
		r.fail("op %d: output digest %s, golden %s", i, digest, r.golden[i])
	}
}

// trialOutput is what one trial produces; its canonical JSON is the
// golden digest's input. Layer outputs pass through untyped.
type trialOutput struct {
	Accuracy       float64            `json:"accuracy"`
	CenterAccuracy float64            `json:"center_accuracy"`
	Overhead       snd.Overhead       `json:"overhead"`
	Radio          map[string]float64 `json:"radio"`
	Events         map[string]int64   `json:"events"`
	ProtocolErrors int                `json:"protocol_errors"`
}

func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// untyped turns a layer's struct output into name → number through its
// JSON form, so the benchmark never names the layer's type.
func untyped(v any) map[string]float64 {
	out := map[string]float64{}
	if b, err := json.Marshal(v); err == nil {
		_ = json.Unmarshal(b, &out) // non-numeric fields are not counters
	}
	return out
}

// trialOp is one op of dense-paper and sparse-large: NewSimulation(Nodes:
// -1) → DeployRound → Accuracy, CenterAccuracy, Overhead → Close.
func (r *run) trialOp(i int) (time.Duration, int) {
	r.res.Attempted++
	trace := fmt.Sprintf("%s/op/%d", r.Workload, i)
	start := time.Now()
	root := r.tr.begin(trace, "trial", 0)
	s, out, err := r.trial(trace, root, r.Seed+int64(i))
	if err == nil {
		sp := r.tr.begin(trace, "sim.close", root)
		s.Close()
		r.tr.end(sp)
	}
	d := time.Since(start)
	r.sampleTrial(r.tr.end(root))
	if err != nil {
		r.opFailed(trace, err)
		return d, 0
	}
	r.checkTrial(trace, out)
	r.checkGolden(i, digest(out))
	return d, 1
}

// trial builds and runs one discovery round at the workload's trial shape
// and computes its metrics; the caller closes the simulation.
func (r *run) trial(trace string, root int, seed int64) (*snd.Simulation, trialOutput, error) {
	sz := r.Size
	p := snd.SimParams{
		Field: snd.NewField(sz.Field, sz.Field), Range: sz.Range,
		Nodes: -1, Threshold: sz.Threshold, Seed: seed,
	}
	var ph *phases
	if r.tr != nil {
		ph = &phases{t: r.tr, trace: trace}
		p.Recorder = ph
	}
	sp := r.tr.begin(trace, "sim.new", root)
	s, err := snd.NewSimulation(p)
	r.sampleMs("sim.new_ms", r.tr.end(sp))
	if err != nil {
		return nil, trialOutput{}, err
	}
	round := r.tr.begin(trace, "sim.round", root)
	if ph != nil {
		ph.start(round)
	}
	err = s.DeployRound(sz.Nodes)
	if ph != nil {
		for _, p := range ph.finish() {
			r.sampleMs(p.Name+"_ms", p)
			r.sample(p.Name+"_alloc_mb", p.Attrs["alloc_mb"])
		}
	}
	r.tr.end(round)
	if err != nil {
		s.Close()
		return nil, trialOutput{}, err
	}
	sp = r.tr.begin(trace, "sim.metrics", root)
	out := trialOutput{Accuracy: s.Accuracy(), CenterAccuracy: s.CenterAccuracy(), Overhead: s.Overhead()}
	r.sampleMs("sim.metrics_ms", r.tr.end(sp))
	out.Radio = untyped(s.Medium().Counters())
	out.Events = map[string]int64{}
	var events int64
	for k, n := range s.EventCounts().Snapshot() {
		out.Events[k.String()] = n
		events += n
	}
	out.ProtocolErrors = s.ProtocolErrors()
	nodes := float64(sz.Nodes)
	r.sample("sim.events_per_trial", float64(events))
	r.sample("radio.sent_per_node", out.Radio["Sent"]/nodes)
	r.sample("radio.delivered_per_node", out.Radio["Delivered"]/nodes)
	r.sample("core.hash_ops_per_node", out.Overhead.HashOpsPerNode)
	r.sample("core.storage_bytes_per_node", out.Overhead.StorageMeanBytes)
	return s, out, nil
}

func (r *run) sampleMs(name string, s Span) { r.sample(name, ms(s.Dur())) }

func (r *run) sampleTrial(s Span) {
	r.sample("sim.trial_alloc_mb", s.Attrs["alloc_mb"])
	r.sample("sim.trial_allocs", s.Attrs["allocs"])
}

// checkTrial applies the invariants every benign trial must meet.
func (r *run) checkTrial(trace string, out trialOutput) {
	if lost := out.Radio["LostOverflow"]; lost != 0 {
		r.fail("%s: radio dropped %v frames on inbox overflow", trace, lost)
	}
	if out.ProtocolErrors != 0 {
		r.fail("%s: %d protocol errors on a benign run", trace, out.ProtocolErrors)
	}
	if (r.Workload == DensePaper || r.Workload == SparseLarge) && out.Accuracy <= 0.9 {
		r.fail("%s: accuracy %.4f, want > 0.9", trace, out.Accuracy)
	}
}

// probe runs one probe trial at the workload's trial shape, then times
// each layer's entry point once on its layout: the attack round of compare
// (compromise the farthest pair's first node, plant its replica at the
// other, deploy a staging round there), truth and tentative graphs,
// split-neighbourhood detection, randomized multicast, and the centre
// node's record codec.
func (r *run) probe(j int) {
	trace := fmt.Sprintf("%s/probe/%d", r.Workload, j)
	seed := r.Seed + int64(j)
	root := r.tr.begin(trace, "trial", 0)
	s, out, err := r.trial(trace, root, seed)
	r.sampleTrial(r.tr.end(root))
	if err != nil {
		r.fail("%s: %v", trace, err)
		return
	}
	defer s.Close()
	r.checkTrial(trace, out)
	probe := r.tr.begin(trace, "probe", 0)
	defer r.tr.end(probe)
	rng := r.Size.Range
	l := s.Layout()

	victim, far := farthestPair(l.Devices())
	if victim == nil {
		r.fail("%s: fewer than two nodes", trace)
		return
	}
	staging := snd.WithinSampler{Region: snd.Rect{
		Min: snd.Point{X: far.Origin.X - 15, Y: far.Origin.Y - 15},
		Max: snd.Point{X: far.Origin.X + 15, Y: far.Origin.Y + 15},
	}}
	sp := r.tr.begin(trace, "sim.attack_round", probe)
	err = s.Compromise(victim.Node)
	if err == nil {
		_, err = s.PlantReplica(victim.Node, far.Origin)
	}
	if err == nil {
		err = s.DeployRoundAt(stagingNodes, staging)
	}
	r.sampleMs("sim.attack_round_ms", r.tr.end(sp))
	if err != nil {
		r.fail("%s: attack round: %v", trace, err)
		return
	}
	for _, rep := range s.AuditSafety(2 * rng) {
		if rep.Violated {
			r.fail("%s: replica accepted %.1f m from its origin, beyond 2R (Theorem 3)", trace, rep.Reach)
		}
	}

	sp = r.tr.begin(trace, "deploy.truth_graph", probe)
	l.TruthGraph(rng)
	r.sampleMs("deploy.truth_graph_ms", r.tr.end(sp))

	sp = r.tr.begin(trace, "verify.tentative_graph", probe)
	tent := verify.TentativeGraph(l, snd.OracleVerifier{}, rng)
	r.sampleMs("verify.tentative_graph_ms", r.tr.end(sp))

	sp = r.tr.begin(trace, "central.split_detect", probe)
	snd.DetectSplitNeighborhoods(tent, 2)
	r.sampleMs("central.split_detect_ms", r.tr.end(sp))

	sp = r.tr.begin(trace, "replica.multicast", probe)
	net := snd.BuildReplicaNetwork(l, rng, []byte("bench"))
	snd.RandomizedMulticast(net, snd.ReplicaConfig{ForwardProb: 0.25, Witnesses: 2}, rand.New(rand.NewSource(seed)))
	r.sampleMs("replica.multicast_ms", r.tr.end(sp))

	rec := s.PrimaryEndpoint(l.ClosestToCenter().Node).Record()
	var enc []byte
	sp = r.tr.begin(trace, "core.record_encode", probe)
	for range codecReps {
		enc = rec.Encode()
	}
	r.sample("core.record_encode_us", us(r.tr.end(sp).Dur())/codecReps)
	var dec snd.BindingRecord
	sp = r.tr.begin(trace, "core.record_decode", probe)
	for range codecReps {
		dec, err = core.DecodeBindingRecord(enc)
	}
	r.sample("core.record_decode_us", us(r.tr.end(sp).Dur())/codecReps)
	if err != nil || !bytes.Equal(dec.Encode(), enc) {
		r.fail("%s: centre record does not survive encode/decode (%v)", trace, err)
	}
}

// farthestPair returns the two alive original devices farthest apart,
// the victim and replica site compare uses.
func farthestPair(devs []*snd.Device) (a, b *snd.Device) {
	best := -1.0
	for i, x := range devs {
		if x.Replica || !x.Alive {
			continue
		}
		for _, y := range devs[i+1:] {
			if y.Replica || !y.Alive {
				continue
			}
			if d := x.Origin.Dist2(y.Origin); d > best {
				best, a, b = d, x, y
			}
		}
	}
	return a, b
}

// attack runs attack-sweep: each op is one compare sweep of Size.Trials
// trials through the registry on a runner engine with nproc workers.
func (r *run) attack() error {
	e, ok := exp.Lookup("compare")
	if !ok {
		return errors.New("experiment compare is not registered")
	}
	workers := runtime.GOMAXPROCS(0)
	eng := runner.New(runner.Options{Workers: workers})
	dur := eng.Metrics().TrialDuration.With("compare")
	wait := eng.Metrics().QueueWait.With("compare")
	var dur0, wait0 float64
	var durN, waitN int64
	r.res.PeakRSSMB = r.serial(func(i int) (time.Duration, int) {
		r.res.Attempted++
		trace := fmt.Sprintf("%s/op/%d", r.Workload, i)
		sp := r.tr.begin(trace, "exp.run", 0)
		start := time.Now()
		res, err := runCompare(context.Background(), e, eng, r.Size, r.Seed+int64(i*r.Size.Trials))
		d := time.Since(start)
		r.tr.end(sp)
		if err != nil {
			r.opFailed(trace, err)
			return d, 0
		}
		if err := checkCompare(res); err != nil {
			r.fail("%s: %v", trace, err)
		}
		r.checkGolden(i, digest(res.Render()))
		return d, r.Size.Trials
	}, func() {
		dur0, durN, wait0, waitN = dur.Sum(), dur.Count(), wait.Sum(), wait.Count()
	})
	if r.SetupOnly {
		return nil
	}
	busy := dur.Sum() - dur0
	if n := dur.Count() - durN; n > 0 {
		r.res.TrialMs = 1e3 * busy / float64(n)
	}
	waitMs := 0.0
	if n := wait.Count() - waitN; n > 0 {
		waitMs = 1e3 * (wait.Sum() - wait0) / float64(n)
	}
	r.extra("runner.queue_wait_mean_ms", waitMs, "ms")
	r.extra("runner.busy_frac", busy/(r.res.WindowS*float64(workers)), "1")
	return nil
}

// compareParams is the params document of one compare sweep.
func compareParams(sz Size, seed int64) json.RawMessage {
	raw, _ := json.Marshal(map[string]any{ // a map of numbers always encodes
		"Nodes": sz.Nodes, "FieldSide": sz.Field, "Range": sz.Range,
		"Threshold": sz.Threshold, "Trials": sz.Trials, "Seed": seed,
	})
	return raw
}

// runCompare runs one compare sweep through the registry: Lookup →
// Decode → Run.
func runCompare(ctx context.Context, e exp.Experiment, eng *runner.Engine, sz Size, seed int64) (exp.Result, error) {
	bound, err := e.Decode(compareParams(sz, seed))
	if err != nil {
		return nil, err
	}
	return bound.Run(ctx, eng)
}

// checkCompare applies the invariants of a compare result: no trial
// dropped, and the paper's protocol prevented every replica (Theorem 3).
func checkCompare(res exp.Result) error {
	if h := res.Health(); h.Degraded() {
		return fmt.Errorf("sweep degraded: %s", h)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return checkPrevention(raw)
}

// checkPrevention finds the prevention row of a compare result's JSON and
// requires a 100 % rate.
func checkPrevention(raw []byte) error {
	var doc struct {
		Rows []struct {
			Scheme  string
			Mode    string
			Defense float64
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("decode compare result: %w", err)
	}
	for _, row := range doc.Rows {
		if row.Mode == "prevention" {
			if row.Defense != 1 {
				return fmt.Errorf("%s prevented %.0f%% of replicas, want 100%% (Theorem 3)", row.Scheme, 100*row.Defense)
			}
			return nil
		}
	}
	return errors.New("compare result has no prevention row")
}

// selfUsage returns this process's CPU seconds and peak RSS in MB.
func selfUsage() (cpuS, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return usage(&ru)
}

// usage reads CPU seconds and peak RSS (Linux reports ru_maxrss in KiB).
func usage(ru *syscall.Rusage) (cpuS, rssMB float64) {
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu.Seconds(), float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
