package exp

import (
	"snd/internal/geometry"
	"snd/internal/runner"
	"snd/internal/sim"
	"snd/internal/stats"
	"snd/internal/topology"
)

// IsolationParams configures E12: the connectivity cost of the threshold.
// Section 3 of the paper observes that the functional topology Ḡ "may
// include multiple, separated partitions" and that "it is desirable to
// have a well-connected graph Ḡ … however, this often makes it expensive
// for us to protect the neighbor discovery." This experiment quantifies
// that trade-off: as t grows, validation prunes relations and nodes fall
// out of the useful (largest) partition.
type IsolationParams struct {
	Nodes      int
	FieldSide  float64
	Range      float64
	Thresholds []int
	Trials     int
	Seed       int64
}

func (p *IsolationParams) applyDefaults() {
	mergeDefaults(p, IsolationParams{
		Nodes: 200, FieldSide: 100, Range: 50,
		Thresholds: []int{0, 40, 80, 100, 120, 140, 150, 160}, Trials: 5,
	})
}

// IsolationResult reports partition structure against the threshold.
type IsolationResult struct {
	// IsolatedFraction is the share of nodes outside the largest
	// partition of the functional topology.
	IsolatedFraction stats.Series
	// Partitions is the mean number of weakly connected components.
	Partitions stats.Series
	// Accuracy is the usual relation-level accuracy, for reading both
	// costs off one table.
	Accuracy stats.Series
	HealthReport
}

// Table renders the result.
func (r *IsolationResult) Table() *stats.Table {
	return &stats.Table{
		Title:   "Functional topology connectivity vs threshold t (paper Section 3 trade-off)",
		XLabel:  "t",
		Series:  []*stats.Series{&r.IsolatedFraction, &r.Partitions, &r.Accuracy},
		Comment: "useful partition = largest weakly connected component of Ḡ",
	}
}

// Render formats the table for terminal output.
func (r *IsolationResult) Render() string { return r.Table().Render() }

// isolationSample is one deployment's partition measurement.
type isolationSample struct {
	IsolatedFraction float64
	Partitions       float64
	Accuracy         float64
}

// planIsolation builds the sweep that runs E12 over the paper's Figure 3
// deployment.
func planIsolation(p IsolationParams) Sweep[isolationSample, *IsolationResult] {
	p.applyDefaults()
	return Sweep[isolationSample, *IsolationResult]{
		Name: "isolation", Params: p, Points: len(p.Thresholds), Trials: p.Trials,
		Trial: func(point, trial int) (isolationSample, error) {
			t := p.Thresholds[point]
			s, err := sim.New(sim.Params{
				Field: geometry.NewField(p.FieldSide, p.FieldSide), Range: p.Range,
				Nodes: p.Nodes, Threshold: t, Seed: p.Seed + int64(t*100+trial),
			})
			if err != nil {
				return isolationSample{}, err
			}
			defer s.Close()
			functional := s.FunctionalGraph()
			isolated := functional.IsolatedNodes(topology.LargestOnly{})
			return isolationSample{
				IsolatedFraction: float64(len(isolated)) / float64(functional.NumNodes()),
				Partitions:       float64(len(functional.Partitions())),
				Accuracy:         s.Accuracy(),
			}, nil
		},
		Reduce: func(out *runner.Outcome[isolationSample]) (*IsolationResult, error) {
			res := &IsolationResult{
				IsolatedFraction: stats.Series{Name: "isolated fraction"},
				Partitions:       stats.Series{Name: "partitions"},
				Accuracy:         stats.Series{Name: "accuracy"},
			}
			for i, t := range p.Thresholds {
				var isoFracs, partCounts, accs []float64
				for _, sample := range out.Points[i] {
					isoFracs = append(isoFracs, sample.IsolatedFraction)
					partCounts = append(partCounts, sample.Partitions)
					accs = append(accs, sample.Accuracy)
				}
				iso := stats.Summarize(isoFracs)
				res.IsolatedFraction.Append(float64(t), iso.Mean, iso.CI95())
				res.Partitions.Append(float64(t), stats.Mean(partCounts), 0)
				acc := stats.Summarize(accs)
				res.Accuracy.Append(float64(t), acc.Mean, acc.CI95())
			}
			return res, nil
		},
	}
}
