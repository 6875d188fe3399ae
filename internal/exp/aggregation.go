package exp

import (
	"fmt"
	"slices"
	"strings"

	"snd/internal/cluster"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/runner"
	"snd/internal/sim"
	"snd/internal/topology"
)

// AggregationParams configures E14: cluster-based data aggregation under a
// replication attack — the paper's introduction warns that with wrong
// neighbor views "many sensor nodes far from each other may be included in
// the same cluster … and some data aggregation (e.g., average in a
// particular area) may generate incorrect results."
type AggregationParams struct {
	Nodes     int
	FieldSide float64
	Range     float64
	Threshold int
	Trials    int
	Seed      int64
}

func (p *AggregationParams) applyDefaults() {
	mergeDefaults(p, AggregationParams{
		Nodes: 300, FieldSide: 100, Range: 25, Threshold: 4, Trials: 5,
	})
}

// AggregationRow summarizes aggregation quality over one neighbor-table
// source.
type AggregationRow struct {
	Table string
	// MeanError and MaxError are node-level |cluster average − local
	// truth| in field units.
	MeanError float64
	MaxError  float64
	// WorstSpan is the largest member-to-member distance within any
	// cluster — the paper's "far from each other in the same cluster".
	WorstSpan float64
}

// AggregationResult compares aggregation over tentative vs functional
// clustering.
type AggregationResult struct {
	Rows []AggregationRow
	HealthReport
}

// Render formats the comparison.
func (r *AggregationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Cluster aggregation under a replication attack (intro, quantified) ==\n")
	fmt.Fprintf(&b, "sensed field: f(pos) = pos.X; lowest-ID clustering; errors in field units\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %14s\n", "neighbor table", "mean error", "max error", "worst span (m)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %12.2f %12.2f %14.1f\n", row.Table, row.MeanError, row.MaxError, row.WorstSpan)
	}
	return b.String()
}

// planAggregation builds the sweep that runs E14: every node senses a smooth
// spatial field (f = x-coordinate); clusters form by lowest-ID election;
// each cluster computes the average of its members' readings; a node's
// aggregation error is the difference between its cluster's average and its
// own local truth. A low-ID compromised node replicated across the field
// drags far regions into one cluster over the tentative topology, corrupting
// the averages; the functional topology keeps clusters local.
func planAggregation(p AggregationParams) Sweep[aggregationSample, *AggregationResult] {
	p.applyDefaults()
	return Sweep[aggregationSample, *AggregationResult]{
		Name: "aggregation", Params: p, Points: 1, Trials: p.Trials,
		Trial: func(_, trial int) (aggregationSample, error) {
			s, err := sim.New(sim.Params{
				Field: geometry.NewField(p.FieldSide, p.FieldSide), Range: p.Range,
				Nodes: p.Nodes, Threshold: p.Threshold, Seed: p.Seed + int64(trial),
			})
			if err != nil {
				return aggregationSample{}, err
			}
			defer s.Close()
			// Compromise the lowest ID — the node every naive neighborhood
			// elects — and clone it into the corners.
			victim := nodeid.ID(1)
			if err := s.Compromise(victim); err != nil {
				return aggregationSample{}, err
			}
			inset := p.Range / 4
			for _, c := range []geometry.Point{
				{X: inset, Y: inset}, {X: p.FieldSide - inset, Y: inset},
				{X: inset, Y: p.FieldSide - inset}, {X: p.FieldSide - inset, Y: p.FieldSide - inset},
			} {
				if _, err := s.PlantReplica(victim, c); err != nil {
					return aggregationSample{}, err
				}
			}
			if err := s.DeployRound(p.Nodes / 3); err != nil {
				return aggregationSample{}, err
			}

			pos := make(map[nodeid.ID]geometry.Point)
			for _, d := range s.Layout().Devices() {
				if !d.Replica && d.Alive {
					pos[d.Node] = d.Pos
				}
			}
			tables := map[string]*topology.Graph{
				"tentative (no validation)": s.Tentative(),
				"functional (this paper)":   s.FunctionalGraph(),
			}
			sample := aggregationSample{Tables: map[string]aggregationErrs{}}
			for name, table := range tables {
				assignment := cluster.LowestID(table)
				meanErr, maxErr, span, n := aggregationErrors(assignment, pos)
				sample.Tables[name] = aggregationErrs{
					MeanError: meanErr, MaxError: maxErr, WorstSpan: span, Nodes: n,
				}
			}
			return sample, nil
		},
		Reduce: func(out *runner.Outcome[aggregationSample]) (*AggregationResult, error) {
			agg := map[string]*AggregationRow{
				"tentative (no validation)": {Table: "tentative (no validation)"},
				"functional (this paper)":   {Table: "functional (this paper)"},
			}
			for _, sample := range out.Points[0] {
				for name, errs := range sample.Tables {
					row := agg[name]
					row.MeanError += errs.MeanError
					row.MaxError = max(row.MaxError, errs.MaxError)
					row.WorstSpan = max(row.WorstSpan, errs.WorstSpan)
				}
			}
			res := &AggregationResult{}
			for _, name := range []string{"tentative (no validation)", "functional (this paper)"} {
				row := agg[name]
				row.MeanError /= float64(len(out.Points[0]))
				res.Rows = append(res.Rows, *row)
			}
			return res, nil
		},
	}
}

// aggregationErrs is one table's error measurement within a trial.
type aggregationErrs struct {
	MeanError float64
	MaxError  float64
	WorstSpan float64
	Nodes     int
}

// aggregationSample is one attacked deployment's aggregation measurements.
type aggregationSample struct {
	Tables map[string]aggregationErrs
}

// aggregationErrors computes per-node |cluster mean − local truth| with
// the sensed field f(pos) = pos.X, plus the worst intra-cluster span.
// Nodes without a known position (compromised identities report through
// replicas and are excluded from truth) are skipped as reporters but their
// heads' clusters still aggregate the members that do report.
func aggregationErrors(a cluster.Assignment, pos map[nodeid.ID]geometry.Point) (meanErr, maxErr, worstSpan float64, n int) {
	// Accumulate in sorted node order: float sums depend on addition order,
	// and the experiment must be reproducible run to run.
	nodes := make([]nodeid.ID, 0, len(a))
	for node := range a {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes)
	sum := make(map[nodeid.ID]float64)
	count := make(map[nodeid.ID]int)
	members := make(map[nodeid.ID][]nodeid.ID)
	for _, node := range nodes {
		head := a[node]
		p, ok := pos[node]
		if !ok {
			continue
		}
		sum[head] += p.X
		count[head]++
		members[head] = append(members[head], node)
	}
	var total float64
	for _, node := range nodes {
		head := a[node]
		p, ok := pos[node]
		if !ok || count[head] == 0 {
			continue
		}
		avg := sum[head] / float64(count[head])
		errv := avg - p.X
		if errv < 0 {
			errv = -errv
		}
		total += errv
		if errv > maxErr {
			maxErr = errv
		}
		n++
	}
	if n > 0 {
		meanErr = total / float64(n)
	}
	for _, ms := range members {
		for i := range ms {
			for j := i + 1; j < len(ms); j++ {
				if d := pos[ms[i]].Dist(pos[ms[j]]); d > worstSpan {
					worstSpan = d
				}
			}
		}
	}
	return meanErr, maxErr, worstSpan, n
}
