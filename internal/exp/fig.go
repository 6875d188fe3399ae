// Package exp implements the paper's experiments behind a single
// self-registering catalog: every runner is registered once (catalog.go)
// as an Experiment — name, description, typed params with a
// reflection-derived schema, strict JSON decode, and a Run method — and
// cmd/sndfig, cmd/sndsim, and cmd/sndserve all dispatch through that one
// registry instead of keeping per-binary experiment tables. Adding a
// scenario means writing a params struct and a plan returning its Sweep
// (one trial function, one reducer), then registering the plan; the
// binaries, the HTTP catalog, and the docs pick it up automatically.
//
// Every experiment is one Sweep (sweep.go) executed by internal/runner:
// each trial is a pure function of its
// (point, trial) grid indices, so the engine can shard trials across
// workers — and memoize them in a content-addressed cache — while
// producing results bit-identical to a serial run for a fixed seed.
// The registry is the only way in: Lookup, Decode and Experiment.Run run
// a whole sweep, and RunCells runs the cells a coordinator leased. Both
// take the engine as an argument; nil falls back to the shared
// runner.Default() pool. Params structs hold only what keys the sweep.
//
// Run takes a context.Context and propagates it to the engine:
// cancelling the context stops the sweep promptly (no new trials are
// scheduled) and Run returns ctx.Err(). Completed trials stay in
// the engine cache, so a re-run resumes where the interruption hit.
// Every result implements Result: Render() prints the same rows and
// series the paper reports, and Health() exposes trials lost to the
// panic-retry budget, so degraded cells are visible instead of silently
// biasing means.
package exp

import (
	"math/rand"
	"strconv"

	"snd/internal/analysis"
	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/runner"
	"snd/internal/stats"
)

// Fig3Params configures the Figure 3 reproduction. The defaults are the
// paper's: 200 nodes uniform in 100×100 m (density 1 per 50 m²), R = 50 m,
// measurements taken at the node closest to the field center.
type Fig3Params struct {
	Nodes     int
	FieldSide float64
	Range     float64
	// Thresholds is the x-axis grid (default 0..160 step 10).
	Thresholds []int
	// Trials averages the simulated curve over this many deployments.
	Trials int
	Seed   int64
}

func (p *Fig3Params) applyDefaults() {
	mergeDefaults(p, Fig3Params{
		Nodes: 200, FieldSide: 100, Range: 50,
		Thresholds: seqInts(0, 160, 10), Trials: 50,
	})
}

// Fig3Result carries both curves of Figure 3.
type Fig3Result struct {
	Theory     stats.Series
	Simulation stats.Series
	HealthReport
}

// Table renders the result in the harness format.
func (r *Fig3Result) Table() *stats.Table {
	return &stats.Table{
		Title:   "Figure 3 — fraction of actual neighbors validated vs threshold t",
		XLabel:  "t",
		Series:  []*stats.Series{&r.Theory, &r.Simulation},
		Comment: "R=50 m, 200 nodes in 100x100 m (D = 1 node / 50 m^2); center node sampled",
	}
}

// Render formats the table for terminal output.
func (r *Fig3Result) Render() string { return r.Table().Render() }

// fig3Sample is one deployment's validation profile across the threshold
// grid.
type fig3Sample struct {
	Fractions []float64
}

// planFig3 builds the sweep that reproduces Figure 3: the fraction of a
// benign center node's actual neighbors that pass the |N(u) ∩ N(v)| ≥ t+1
// validation, as a function of t — the theoretical curve from the Section
// 4.4.1 model next to the simulated one.
//
// The simulation measures the exact quantity the protocol computes (common
// tentative neighbors against the threshold) directly on the tentative
// topology; the full message-level protocol is exercised end to end in
// package sim and produces matching numbers (see sim's
// TestCenterAccuracyTracksTheory).
func planFig3(p Fig3Params) Sweep[fig3Sample, *Fig3Result] {
	p.applyDefaults()
	field := geometry.NewField(p.FieldSide, p.FieldSide)
	model := analysis.Model{
		Density: float64(p.Nodes) / field.Area(),
		Range:   p.Range,
	}
	// One deployment per trial yields a full common-neighbor profile of
	// the center node; every threshold is then evaluated on it.
	return Sweep[fig3Sample, *Fig3Result]{
		Name: "fig3", Params: p, Points: 1, Trials: p.Trials,
		Trial: func(_, trial int) (fig3Sample, error) {
			rng := rand.New(rand.NewSource(runner.TrialSeed(p.Seed, 0, trial)))
			return fig3Sample{
				Fractions: centerValidationProfile(field, p.Nodes, p.Range, p.Thresholds, rng),
			}, nil
		},
		Reduce: func(out *runner.Outcome[fig3Sample]) (*Fig3Result, error) {
			res := &Fig3Result{
				Theory:     stats.Series{Name: "theory f_b"},
				Simulation: stats.Series{Name: "simulation"},
			}
			perThreshold := make([][]float64, len(p.Thresholds))
			for _, sample := range out.Points[0] {
				for i, f := range sample.Fractions {
					perThreshold[i] = append(perThreshold[i], f)
				}
			}
			for i, t := range p.Thresholds {
				res.Theory.Append(float64(t), model.Accuracy(t), 0)
				s := stats.Summarize(perThreshold[i])
				res.Simulation.Append(float64(t), s.Mean, s.CI95())
			}
			return res, nil
		},
	}
}

// centerValidationProfile deploys one network and returns, for each
// threshold, the fraction of the center node's actual neighbors with at
// least t+1 common tentative neighbors.
//
// The deployment is all-benign (no replicas, no kills) and the oracle
// verifier accepts exactly the in-range pairs, so the tentative topology
// equals the ground-truth graph — which the layout builds through the
// pooled cell sweep. The relation set, and therefore every fraction, is
// the one TentativeGraph would give.
func centerValidationProfile(field geometry.Rect, nodes int, r float64, thresholds []int, rng *rand.Rand) []float64 {
	l := deploy.NewLayout(field)
	l.DeploySampled(deploy.Uniform{}, nodes, rng, 0)
	tent := l.TruthGraph(r)
	center := l.ClosestToCenter()
	neighbors := tent.Out(center.Node)

	out := make([]float64, len(thresholds))
	if len(neighbors) == 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	// Common-neighbor counts, one pass.
	counts := make([]int, 0, len(neighbors))
	for _, v := range neighbors {
		counts = append(counts, tent.CommonOut(center.Node, v))
	}
	for i, t := range thresholds {
		validated := 0
		for _, c := range counts {
			if c >= t+1 {
				validated++
			}
		}
		out[i] = float64(validated) / float64(len(counts))
	}
	return out
}

// Fig4Params configures the Figure 4 reproduction: validated fraction vs
// deployment density for several thresholds. Defaults follow the paper:
// densities 10..50 nodes per 1,000 m², R = 50 m, t ∈ {10, 30, 50}.
type Fig4Params struct {
	FieldSide  float64
	Range      float64
	Densities  []float64 // nodes per 1,000 m²
	Thresholds []int
	Trials     int
	Seed       int64
}

func (p *Fig4Params) applyDefaults() {
	mergeDefaults(p, Fig4Params{
		FieldSide: 100, Range: 50,
		Densities:  []float64{10, 15, 20, 25, 30, 35, 40, 45, 50},
		Thresholds: []int{10, 30, 50},
		Trials:     50,
	})
}

// Fig4Result holds one simulated curve per threshold.
type Fig4Result struct {
	Curves []*stats.Series
	HealthReport
}

// Table renders the result in the harness format.
func (r *Fig4Result) Table() *stats.Table {
	return &stats.Table{
		Title:   "Figure 4 — fraction of actual neighbors validated vs deployment density",
		XLabel:  "nodes/1000 m^2",
		Series:  r.Curves,
		Comment: "R=50 m, 100x100 m field; center node sampled",
	}
}

// Render formats the table for terminal output.
func (r *Fig4Result) Render() string { return r.Table().Render() }

// planFig4 builds the sweep that reproduces Figure 4: validated-neighbor
// fraction as a function of deployment density, for t ∈ {10, 30, 50}. Each
// density is one point of the sweep grid, so densities shard across workers
// as well as trials.
func planFig4(p Fig4Params) Sweep[fig3Sample, *Fig4Result] {
	p.applyDefaults()
	field := geometry.NewField(p.FieldSide, p.FieldSide)
	return Sweep[fig3Sample, *Fig4Result]{
		Name: "fig4", Params: p, Points: len(p.Densities), Trials: p.Trials,
		Trial: func(point, trial int) (fig3Sample, error) {
			nodes := int(p.Densities[point] / 1000 * field.Area())
			rng := rand.New(rand.NewSource(runner.TrialSeed(p.Seed, point, trial)))
			return fig3Sample{
				Fractions: centerValidationProfile(field, nodes, p.Range, p.Thresholds, rng),
			}, nil
		},
		Reduce: func(out *runner.Outcome[fig3Sample]) (*Fig4Result, error) {
			res := &Fig4Result{}
			for _, t := range p.Thresholds {
				res.Curves = append(res.Curves, &stats.Series{Name: seriesNameForThreshold(t)})
			}
			for pi, density := range p.Densities {
				perT := make([][]float64, len(p.Thresholds))
				for _, sample := range out.Points[pi] {
					for i, f := range sample.Fractions {
						perT[i] = append(perT[i], f)
					}
				}
				for i := range p.Thresholds {
					s := stats.Summarize(perT[i])
					res.Curves[i].Append(density, s.Mean, s.CI95())
				}
			}
			return res, nil
		},
	}
}

func seriesNameForThreshold(t int) string {
	return "t=" + strconv.Itoa(t)
}
