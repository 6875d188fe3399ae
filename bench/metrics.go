package bench

// Metric declares one number the benchmark reports. BENCHMARK.json at the
// repository root mirrors the E2E and Layer tables (name, unit, better,
// bound); TestBenchmarkJSONMatchesTables keeps the two in step.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is, for an end-to-end metric, the share of the parent's median
	// by which it may worsen before a change counts as a regression.
	Bound float64
	// Target and On name, for a per-layer metric, the end-to-end metric the
	// layer should move and the workloads on which the move should show.
	Target string
	On     []string
}

// E2E are the end-to-end metrics of the untraced run. Every workload
// reports all of them. An "op" is the unit of work a user waits for: one
// trial call (dense-paper, sparse-large), one compare sweep through the
// registry (attack-sweep), one fresh job through sndserve (service-jobs).
// setup_s has the widest bound: one set-up lasts under a second, and even
// the median of five repeats spreads by up to 18 % (IQR over median) over
// ten seeds (README.md, Baseline).
var E2E = []Metric{
	{Name: "trials_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Workload lists for Metric.On.
var (
	serial   = []string{DensePaper, SparseLarge}
	dense    = []string{DensePaper}
	sparse   = []string{SparseLarge}
	attack   = []string{AttackSweep}
	all      = []string{DensePaper, SparseLarge, AttackSweep, ServiceJobs}
	parallel = []string{AttackSweep, ServiceJobs}
)

// Layer are the per-layer metrics of the traced run. Every workload reports
// all of them: the sim, radio, core and probe numbers come from the
// workload's own trials (dense-paper, sparse-large) or from probe trials of
// the same shape (attack-sweep, service-jobs).
var Layer = []Metric{
	{Name: "sim.new_ms", Unit: "ms", Better: "lower", Target: "op_p50_ms", On: serial},
	{Name: "sim.round.prepare_ms", Unit: "ms", Better: "lower", Target: "op_p50_ms", On: sparse},
	{Name: "sim.round.prepare_alloc_mb", Unit: "MB", Better: "lower", Target: "peak_rss_mb", On: sparse},
	{Name: "sim.round.hello_ms", Unit: "ms", Better: "lower", Target: "op_p50_ms", On: sparse},
	{Name: "sim.round.records_ms", Unit: "ms", Better: "lower", Target: "op_p50_ms", On: dense},
	{Name: "sim.round.records_alloc_mb", Unit: "MB", Better: "lower", Target: "op_p50_ms", On: dense},
	{Name: "sim.round.commit_ms", Unit: "ms", Better: "lower", Target: "op_p50_ms", On: dense},
	{Name: "sim.metrics_ms", Unit: "ms", Better: "lower", Target: "op_p50_ms", On: sparse},
	{Name: "sim.trial_alloc_mb", Unit: "MB", Better: "lower", Target: "peak_rss_mb", On: sparse},
	{Name: "sim.trial_allocs", Unit: "count", Better: "lower", Target: "op_p50_ms", On: serial},
	{Name: "sim.events_per_trial", Unit: "count", Better: "lower", Target: "op_p50_ms", On: serial},
	{Name: "radio.sent_per_node", Unit: "count", Better: "lower", Target: "op_p50_ms", On: serial},
	{Name: "radio.delivered_per_node", Unit: "count", Better: "lower", Target: "op_p50_ms", On: serial},
	{Name: "core.hash_ops_per_node", Unit: "count", Better: "lower", Target: "op_p50_ms", On: dense},
	{Name: "core.storage_bytes_per_node", Unit: "B", Better: "lower", Target: "peak_rss_mb", On: dense},
	{Name: "deploy.truth_graph_ms", Unit: "ms", Better: "lower", Target: "op_p50_ms", On: sparse},
	{Name: "verify.tentative_graph_ms", Unit: "ms", Better: "lower", Target: "op_p50_ms", On: sparse},
	{Name: "core.record_encode_us", Unit: "us", Better: "lower", Target: "op_p50_ms", On: dense},
	{Name: "core.record_decode_us", Unit: "us", Better: "lower", Target: "op_p50_ms", On: dense},
	{Name: "replica.multicast_ms", Unit: "ms", Better: "lower", Target: "trials_per_s", On: attack},
	{Name: "central.split_detect_ms", Unit: "ms", Better: "lower", Target: "trials_per_s", On: attack},
	{Name: "sim.attack_round_ms", Unit: "ms", Better: "lower", Target: "trials_per_s", On: attack},
	{Name: "trial.compute_ms", Unit: "ms", Better: "lower", Target: "trials_per_s", On: all},
	{Name: "proc.cpu_ms_per_trial", Unit: "ms", Better: "lower", Target: "trials_per_s", On: parallel},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Target: "op_p50_ms", On: all},
}

// Value is one reported number with its unit, the shape of every entry of
// a result's "metrics" object.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricByName finds a declared metric in either table.
func metricByName(name string) (Metric, bool) {
	for _, tab := range [][]Metric{E2E, Layer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
