package exp

import (
	"math"
	"math/rand"

	"snd/internal/analysis"
	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/runner"
	"snd/internal/stats"
)

// ScaleParams configures the million-node accuracy experiment (E1 at
// scale). Defaults: 10⁶ nodes uniform at one device per 100 m²
// (FieldSide = 10·√Nodes), R = 25 m (≈ 19.6 expected neighbors), the
// Figure 3 validation fraction measured over a 10,000-node sample.
type ScaleParams struct {
	Nodes int
	// FieldSide is the square field edge in meters; 0 derives it from
	// Nodes at the default density of one device per 100 m².
	FieldSide float64
	Range     float64
	// Thresholds is the x-axis grid (default 0..16 step 2).
	Thresholds []int
	// Samples is how many nodes per deployment the validation profile
	// averages over. Sampling keeps the measurement O(Samples·k²) instead
	// of O(Nodes·k²) while the sample mean stays an unbiased estimate.
	Samples int
	Trials  int
	Seed    int64
}

func (p *ScaleParams) applyDefaults() {
	mergeDefaults(p, ScaleParams{
		Nodes: 1_000_000, Range: 25,
		Thresholds: seqInts(0, 16, 2),
		Samples:    10_000, Trials: 3,
	})
	if p.FieldSide == 0 {
		p.FieldSide = 10 * math.Sqrt(float64(p.Nodes))
	}
}

// ScaleResult carries the sampled validation curve at n=10⁶ next to the
// Section 4.4.1 theoretical curve, plus the deployment's realized
// connectivity so the density regime is visible in the output.
type ScaleResult struct {
	Theory     stats.Series
	Simulation stats.Series
	// MeanDegree is the realized mean tentative-neighbor count.
	MeanDegree float64
	Nodes      int
	HealthReport
}

// Table renders the result in the harness format.
func (r *ScaleResult) Table() *stats.Table {
	return &stats.Table{
		Title:  "Scale — validated-neighbor fraction vs threshold t at n=10^6",
		XLabel: "t",
		Series: []*stats.Series{&r.Theory, &r.Simulation},
		Comment: "constant density 1 device / 100 m^2; sampled nodes per deployment; " +
			"handle-dense engines, CSR tentative topology",
	}
}

// Render formats the table for terminal output.
func (r *ScaleResult) Render() string { return r.Table().Render() }

// scaleSample is one million-node deployment's sampled validation profile.
type scaleSample struct {
	Fractions  []float64
	MeanDegree float64
}

// planScale builds the sweep that runs the headline scale experiment: the
// Figure 3 methodology — validated fraction of actual neighbors vs threshold
// t — at a million nodes. The all-benign deployment makes the tentative
// topology equal the ground-truth graph, which the layout builds in CSR form
// through the pooled parallel cell sweep; the validation profile is then
// measured over a uniform sample of nodes rather than the single center
// node, so one trial exercises the dense-state pipeline end to end (deploy →
// spatial index → CSR build → common-neighbor counting) at the target n.
func planScale(p ScaleParams) Sweep[scaleSample, *ScaleResult] {
	p.applyDefaults()
	field := geometry.NewField(p.FieldSide, p.FieldSide)
	model := analysis.Model{
		Density: float64(p.Nodes) / field.Area(),
		Range:   p.Range,
	}
	return Sweep[scaleSample, *ScaleResult]{
		Name: "scale", Params: p, Points: 1, Trials: p.Trials,
		Trial: func(_, trial int) (scaleSample, error) {
			rng := rand.New(rand.NewSource(runner.TrialSeed(p.Seed, 0, trial)))
			l := deploy.NewLayout(field)
			l.DeploySampled(deploy.Uniform{}, p.Nodes, rng, 0)
			tent := l.TruthGraph(p.Range)
			nodes := tent.Nodes()

			// Partial Fisher-Yates: the first Samples entries of idx become
			// a uniform sample without replacement.
			idx := make([]int32, len(nodes))
			for i := range idx {
				idx[i] = int32(i)
			}
			k := p.Samples
			if k <= 0 || k > len(idx) {
				k = len(idx)
			}
			for i := 0; i < k; i++ {
				j := i + rng.Intn(len(idx)-i)
				idx[i], idx[j] = idx[j], idx[i]
			}

			sample := scaleSample{Fractions: make([]float64, len(p.Thresholds))}
			validated := make([]int, len(p.Thresholds))
			pairs := 0
			for _, i := range idx[:k] {
				u := nodes[i]
				neighbors := tent.Out(u)
				sample.MeanDegree += float64(len(neighbors))
				for _, v := range neighbors {
					c := tent.CommonOut(u, v)
					pairs++
					for ti, t := range p.Thresholds {
						if c >= t+1 {
							validated[ti]++
						}
					}
				}
			}
			if k > 0 {
				sample.MeanDegree /= float64(k)
			}
			for ti := range p.Thresholds {
				if pairs > 0 {
					sample.Fractions[ti] = float64(validated[ti]) / float64(pairs)
				} else {
					sample.Fractions[ti] = 1
				}
			}
			return sample, nil
		},
		Reduce: func(out *runner.Outcome[scaleSample]) (*ScaleResult, error) {
			res := &ScaleResult{
				Theory:     stats.Series{Name: "theory f_b"},
				Simulation: stats.Series{Name: "simulation n=1e6"},
				Nodes:      p.Nodes,
			}
			perThreshold := make([][]float64, len(p.Thresholds))
			degrees := 0.0
			for _, sample := range out.Points[0] {
				for i, f := range sample.Fractions {
					perThreshold[i] = append(perThreshold[i], f)
				}
				degrees += sample.MeanDegree
			}
			if n := len(out.Points[0]); n > 0 {
				res.MeanDegree = degrees / float64(n)
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
