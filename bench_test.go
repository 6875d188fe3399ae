// Benchmarks regenerating each of the paper's evaluation artifacts (see
// DESIGN.md's per-experiment index). Each benchmark runs one reduced-trial
// instance of the corresponding experiment so `go test -bench=.` measures
// the cost of regenerating every figure and table; cmd/sndfig runs the
// full-trial versions.
package snd_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"snd"
	"snd/internal/deploy"
	"snd/internal/exp"
	"snd/internal/radio"
	"snd/internal/runner"
	"snd/internal/store"
)

// benchSizes are the deployment sizes the spatial-query benchmarks sweep.
var benchSizes = []int{200, 2000, 10000}

// benchLayout deploys n devices at a constant density of one device per
// 100 m² (≈78 in-range neighbors at R = 50), so the per-send neighborhood
// size k stays fixed while n grows — the regime where an O(n) receiver
// scan and an O(k) grid query diverge.
func benchLayout(n int, seed int64) *deploy.Layout {
	side := 10 * math.Sqrt(float64(n))
	layout := deploy.NewLayout(snd.NewField(side, side))
	layout.DeploySampled(deploy.Uniform{}, n, rand.New(rand.NewSource(seed)), 0)
	return layout
}

// BenchmarkBroadcast measures one radio broadcast — receiver resolution
// plus delivery accounting — across network sizes at constant density.
// InboxSize 1 keeps per-receiver delivery cost flat across iterations, so
// the timing isolates how the medium finds its receivers.
func BenchmarkBroadcast(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			layout := benchLayout(n, 7)
			medium := radio.NewMedium(layout, radio.Config{Range: 50, InboxSize: 1})
			devs := layout.Devices()
			for _, d := range devs {
				if _, err := medium.Attach(d.Handle); err != nil {
					b.Fatal(err)
				}
			}
			payload := make([]byte, 32)
			// Fill every receive queue to its one-frame bound first, so
			// timed deliveries overflow instead of growing fresh queues.
			for _, d := range devs {
				if _, err := medium.Broadcast(d.Handle, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := medium.Broadcast(devs[i%len(devs)].Handle, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTruthGraph measures building the ground-truth neighbor graph —
// the denominator of every accuracy metric, recomputed per trial — across
// network sizes at constant density.
func BenchmarkTruthGraph(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			layout := benchLayout(n, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if g := layout.TruthGraph(50); g.NumNodes() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkTruthGraphMillion measures the full discovery + validation
// pipeline at the million-node scale the compact CSR representation
// targets: build the truth graph over 10⁶ devices, then run the
// common-neighbor counting sweep the accuracy metrics perform over a
// sample of its rows. The name deliberately does not extend the
// BenchmarkTruthGraph/n=… family so CI can run the micro family with
// -benchtime=100x while giving this one a single timed iteration.
func BenchmarkTruthGraphMillion(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping n=1e6 deployment in -short mode")
	}
	const (
		n = 1_000_000
		r = 25.0 // ~19.6 expected neighbors at density 1/100 m²
	)
	layout := benchLayout(n, 11)
	layout.EnsureGrid(r)
	// timed runs one sample's iterations after a throwaway build, so they
	// take the pooled builder and stripe buffers warm, and with the
	// collector off. Cold, a build allocates anything from 0.1 to 1.9 GB
	// in 28 to 209 allocations, depending on which collections emptied the
	// pools; warm, 22 to 31, depending on whether a collection mid-build
	// made the pools allocate their per-P slots again. A one-iteration
	// sample would gate on that noise. Each iteration leaves ~100 MB of
	// garbage until the sample ends.
	timed := func(b *testing.B, build func()) {
		layout.TruthGraph(r)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			build()
		}
		b.StopTimer()
	}
	b.Run("build", func(b *testing.B) {
		timed(b, func() {
			if g := layout.TruthGraph(r); g.NumNodes() != n {
				b.Fatal("bad graph")
			}
		})
	})
	b.Run("build+validate", func(b *testing.B) {
		timed(b, func() {
			g := layout.TruthGraph(r)
			common := 0
			for _, u := range g.Nodes()[:100_000] {
				for _, v := range g.Out(u) {
					common += g.CommonOut(u, v)
				}
			}
			if common == 0 {
				b.Fatal("no common neighbors at R=25")
			}
		})
	})
}

// runExp runs one registered experiment the way sndserve runs a job:
// Lookup, Decode of the typed params marshalled to JSON, then Run on eng
// (nil uses runner.Default()).
func runExp(b *testing.B, eng *runner.Engine, name string, params any) exp.Result {
	b.Helper()
	e, ok := exp.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	raw, err := json.Marshal(params)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := e.Decode(raw)
	if err != nil {
		b.Fatal(err)
	}
	res, err := bound.Run(context.Background(), eng)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig3Accuracy regenerates Figure 3 (accuracy vs threshold t).
func BenchmarkFig3Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runExp(b, nil, "fig3", exp.Fig3Params{Trials: 3, Seed: int64(i)}).(*exp.Fig3Result)
		if res.Simulation.Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig4Density regenerates Figure 4 (accuracy vs density).
func BenchmarkFig4Density(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runExp(b, nil, "fig4", exp.Fig4Params{Trials: 3, Seed: int64(i)}).(*exp.Fig4Result)
		if len(res.Curves) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkSafetyAudit regenerates the Theorem 3 audit (E3).
func BenchmarkSafetyAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runExp(b, nil, "safety", exp.SafetyParams{
			Trials: 1, CompromiseCounts: []int{2}, Seed: int64(i),
		}).(*exp.SafetyResult)
		if res.ViolationRate.Y[0] != 0 {
			b.Fatal("unexpected violation under threshold")
		}
	}
}

// BenchmarkBreakdown regenerates the clone-clique sweep (E4).
func BenchmarkBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "breakdown", exp.BreakdownParams{
			Trials: 1, CliqueSizes: []int{6}, Seed: int64(i),
		})
	}
}

// BenchmarkImpossibility regenerates the Theorems 1-2 demonstration (E5).
func BenchmarkImpossibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "impossibility", exp.ImpossibilityParams{Trials: 2, Seed: int64(i)})
	}
}

// BenchmarkProtocolOverhead regenerates the Section 4.3 overhead table (E7).
func BenchmarkProtocolOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "overhead", exp.OverheadParams{
			Sizes: []int{150}, Seed: int64(i),
		})
	}
}

// BenchmarkReplicaBaselines regenerates the Section 4.5 comparison (E8).
func BenchmarkReplicaBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "compare", exp.CompareParams{Trials: 1, Seed: int64(i)})
	}
}

// BenchmarkUpdateExtension regenerates the Theorem 4 experiment (E9).
func BenchmarkUpdateExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "update", exp.UpdateParams{
			Trials: 1, Waves: 1, UpdateBudgets: []int{2}, Seed: int64(i),
		})
	}
}

// BenchmarkHostileFlood regenerates the Section 4.4.2 robustness check
// (E10).
func BenchmarkHostileFlood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "hostile", exp.HostileParams{
			Trials: 1, FloodCount: 100, Seed: int64(i),
		})
	}
}

// BenchmarkRoutingImpact regenerates the GPSR blackhole experiment (E11).
func BenchmarkRoutingImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "routing", exp.RoutingParams{Trials: 1, Pairs: 50, Seed: int64(i)})
	}
}

// BenchmarkIsolation regenerates the connectivity-vs-threshold table (E12).
func BenchmarkIsolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "isolation", exp.IsolationParams{
			Trials: 1, Thresholds: []int{0, 120}, Seed: int64(i),
		})
	}
}

// BenchmarkAggregationImpact regenerates the cluster-aggregation
// experiment (E14).
func BenchmarkAggregationImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "aggregation", exp.AggregationParams{Trials: 1, Seed: int64(i)})
	}
}

// BenchmarkAblations regenerates the verifier-noise / key-scheme / engine
// ablation tables (E13).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, nil, "noise", exp.NoiseParams{
			Trials: 1, Sigmas: []float64{0, 5}, Seed: int64(i),
		})
		runExp(b, nil, "scheme", exp.SchemeParams{
			RingSizes: []int{40}, Seed: int64(i),
		})
	}
}

// BenchmarkRunnerSerialVsParallel measures the trial-execution engine
// sharding one representative sweep (the Section 4.5 comparison) across
// worker-pool sizes. Fresh uncached engines each iteration, so the ratio
// between the workers=1 and workers=4 timings is the real speedup.
func BenchmarkRunnerSerialVsParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := runner.New(runner.Options{Workers: workers})
				runExp(b, eng, "compare", exp.CompareParams{Trials: 8, Seed: 42})
			}
		})
	}
}

// BenchmarkRunnerSharding isolates the engine's trial sharding from raw
// CPU throughput: each trial blocks 5ms (as an I/O- or latency-bound
// workload would), so an N-worker pool should finish the 8-trial sweep
// close to N× faster than serial regardless of core count. On multi-core
// hosts BenchmarkRunnerSerialVsParallel shows the same effect for the
// CPU-bound simulations.
func BenchmarkRunnerSharding(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := runner.New(runner.Options{Workers: workers})
			for i := 0; i < b.N; i++ {
				_, err := runner.MapCtx(context.Background(), eng, runner.Spec{
					Experiment: "bench-sharding", Params: i, Points: 1, Trials: 8,
				}, func(_, trial int) (int, error) {
					time.Sleep(5 * time.Millisecond)
					return trial, nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunnerCacheHit measures re-running a sweep whose trials are all
// memoized: the second run should be orders of magnitude cheaper.
func BenchmarkRunnerCacheHit(b *testing.B) {
	eng := runner.New(runner.Options{Workers: 4, Cache: store.NewMemStore()})
	runExp(b, eng, "compare", exp.CompareParams{Trials: 8, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runExp(b, eng, "compare", exp.CompareParams{Trials: 8, Seed: 42})
	}
}

// BenchmarkFullDiscoveryRound measures one complete message-level protocol
// round at the paper's scale (200 nodes, Figure 2/E6 substrate).
func BenchmarkFullDiscoveryRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := snd.NewSimulation(snd.SimParams{Nodes: 200, Threshold: 30, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if acc := s.Accuracy(); acc <= 0 {
			b.Fatal("no accuracy")
		}
		s.Close()
	}
}

// BenchmarkProtocolTrial measures one message-level protocol trial — hello,
// record exchange, validation and commitments over the radio medium, then
// the accuracy and overhead metrics. The n= cases run the sparse scale
// density of one node per 100 m², R = 25, t = 4, where per-device radio and
// endpoint costs dominate. The dense case is the paper's Figure 3 field
// (200 nodes on 100×100 m, R = 50, t = 30, ~150 neighbors each), where
// record encoding, hashing and the |N(u) ∩ N(v)| merges dominate. Unlike
// BenchmarkE1Scale it runs the protocol engine itself, so those costs
// show in B/op and allocs/op.
func BenchmarkProtocolTrial(b *testing.B) {
	cases := []struct {
		name      string
		nodes     int
		side, r   float64
		threshold int
	}{
		{"n=2000", 2000, 10 * math.Sqrt(2000), 25, 4},
		{"n=10000", 10000, 10 * math.Sqrt(10000), 25, 4},
		{"dense", 200, 100, 50, 30},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			if c.nodes > 2000 && testing.Short() {
				b.Skip("skipping n=10000 protocol trial in -short mode")
			}
			for i := 0; i < b.N; i++ {
				s, err := snd.NewSimulation(snd.SimParams{
					Field: snd.NewField(c.side, c.side), Range: c.r, Nodes: c.nodes,
					Threshold: c.threshold, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if acc := s.Accuracy(); acc <= 0 {
					b.Fatal("no accuracy")
				}
				if o := s.Overhead(); o.MessagesPerNode <= 0 {
					b.Fatal("no messages")
				}
				s.Close()
			}
		})
	}
}

// BenchmarkConcurrentBoot measures the goroutine-per-node engine booting a
// 100-node network.
func BenchmarkConcurrentBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		layout := snd.NewLayout(snd.NewField(100, 100))
		layout.DeploySampled(deploy.Uniform{}, 100, rand.New(rand.NewSource(int64(i))), 0)
		medium := radio.NewMedium(layout, radio.Config{Range: 50, InboxSize: 8192})
		master, err := snd.NewMasterKey(nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snd.DiscoverAll(layout, medium, master,
			snd.AsyncConfig{Threshold: 5}, snd.OracleVerifier{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1Scale measures one full E1 (Figure 3 methodology) trial at
// n=100,000: deploy, tentative-topology construction, and the
// common-neighbor validation profile of the center node. This is the
// per-trial unit of the headline scale experiment; allocs/op here is the
// number the bench gate watches for the handle-dense state layout.
func BenchmarkE1Scale(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping n=1e5 E1 trial in -short mode")
	}
	for i := 0; i < b.N; i++ {
		res := runExp(b, nil, "fig3", exp.Fig3Params{
			Nodes: 100_000, FieldSide: 10 * math.Sqrt(100_000), Range: 25,
			Trials: 1, Seed: int64(i),
		}).(*exp.Fig3Result)
		if res.Simulation.Len() == 0 {
			b.Fatal("empty result")
		}
	}
}
