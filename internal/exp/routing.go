package exp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/georoute"
	"snd/internal/nodeid"
	"snd/internal/runner"
	"snd/internal/sim"
	"snd/internal/topology"
)

// RoutingParams configures E11: the application-level impact experiment
// from the paper's introduction — "a sensor node will fail to route
// packets if the next hop on the routing path is not its neighbor" — made
// quantitative with GPSR over an attacked network.
type RoutingParams struct {
	Nodes     int
	FieldSide float64
	Range     float64
	Threshold int
	Pairs     int
	Trials    int
	Seed      int64
}

func (p *RoutingParams) applyDefaults() {
	mergeDefaults(p, RoutingParams{
		Nodes: 300, FieldSide: 100, Range: 25, Threshold: 4, Pairs: 150, Trials: 5,
	})
}

// RoutingRow summarizes GPSR over one neighbor-table source.
type RoutingRow struct {
	Table      string
	Delivered  float64
	Blackholed float64
	Lost       float64
	MeanHops   float64
}

// RoutingResult compares routing over the raw tentative topology against
// the validated functional topology, under the same replication attack.
type RoutingResult struct {
	Rows []RoutingRow
	HealthReport
}

// Render formats the comparison.
func (r *RoutingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== GPSR routing under a replication attack (paper's introduction, quantified) ==\n")
	fmt.Fprintf(&b, "%-28s %10s %12s %8s %10s\n", "neighbor table", "delivered", "blackholed", "lost", "mean hops")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %9.1f%% %11.1f%% %7.1f%% %10.1f\n",
			row.Table, 100*row.Delivered, 100*row.Blackholed, 100*row.Lost, row.MeanHops)
	}
	return b.String()
}

// planRouting builds the sweep that runs E11: one compromised node
// replicated at the four corners of the field; GPSR routes random
// source/destination pairs first over the tentative topology (what direct
// verification alone provides — replicas included everywhere) and then over
// the functional topology produced by the protocol. Packets whose path
// crosses the compromised identity are blackholed: the attacker attracts and
// drops them.
func planRouting(p RoutingParams) Sweep[routingSample, *RoutingResult] {
	p.applyDefaults()
	return Sweep[routingSample, *RoutingResult]{
		Name: "routing", Params: p, Points: 1, Trials: p.Trials,
		Trial: func(_, trial int) (routingSample, error) {
			s, err := sim.New(sim.Params{
				Field: geometry.NewField(p.FieldSide, p.FieldSide), Range: p.Range,
				Nodes: p.Nodes, Threshold: p.Threshold, Seed: p.Seed + int64(trial),
			})
			if err != nil {
				return routingSample{}, err
			}
			defer s.Close()
			victim := s.Layout().ClosestToCenter().Node
			if err := s.Compromise(victim); err != nil {
				return routingSample{}, err
			}
			inset := p.Range / 4
			for _, c := range []geometry.Point{
				{X: inset, Y: inset}, {X: p.FieldSide - inset, Y: inset},
				{X: inset, Y: p.FieldSide - inset}, {X: p.FieldSide - inset, Y: p.FieldSide - inset},
			} {
				if _, err := s.PlantReplica(victim, c); err != nil {
					return routingSample{}, err
				}
			}
			if err := s.DeployRound(p.Nodes / 3); err != nil {
				return routingSample{}, err
			}

			layout := s.Layout()
			pos := make(map[nodeid.ID]geometry.Point)
			for _, d := range layout.Devices() {
				if !d.Replica && d.Alive {
					pos[d.Node] = d.Pos
				}
			}
			reach := physicalReach(layout, p.Range)
			compromised := s.Attacker().Compromised()

			rng := rand.New(rand.NewSource(p.Seed + 1000 + int64(trial)))
			pairs := benignPairs(pos, compromised, p.Pairs, rng)
			sample := routingSample{
				Pairs: len(pairs),
				Rows:  map[string]routingCounts{},
			}

			tables := map[string]*topology.Graph{
				"tentative (no validation)": s.Tentative(),
				"functional (this paper)":   s.FunctionalGraph(),
			}
			for name, table := range tables {
				router := georoute.New(pos, table, reach)
				var counts routingCounts
				for _, pr := range pairs {
					res, err := router.Route(pr.From, pr.To)
					if err != nil {
						return routingSample{}, err
					}
					switch {
					case pathHitsCompromised(res.Path, compromised):
						counts.Blackholed++
					case res.Delivered:
						counts.Delivered++
						counts.HopsSum += float64(res.Hops)
					default:
						counts.Lost++
					}
				}
				sample.Rows[name] = counts
			}
			return sample, nil
		},
		Reduce: func(out *runner.Outcome[routingSample]) (*RoutingResult, error) {
			agg := map[string]*RoutingRow{
				"tentative (no validation)": {Table: "tentative (no validation)"},
				"functional (this paper)":   {Table: "functional (this paper)"},
			}
			totalPairs := 0
			for _, sample := range out.Points[0] {
				totalPairs += sample.Pairs
				for name, counts := range sample.Rows {
					row := agg[name]
					row.Delivered += counts.Delivered
					row.Blackholed += counts.Blackholed
					row.Lost += counts.Lost
					row.MeanHops += counts.HopsSum
				}
			}
			result := &RoutingResult{}
			for _, name := range []string{"tentative (no validation)", "functional (this paper)"} {
				row := agg[name]
				if row.Delivered > 0 {
					row.MeanHops /= row.Delivered
				}
				n := float64(totalPairs)
				row.Delivered /= n
				row.Blackholed /= n
				row.Lost /= n
				result.Rows = append(result.Rows, *row)
			}
			return result, nil
		},
	}
}

// routingCounts accumulates one table's outcomes over a trial's pairs.
type routingCounts struct {
	Delivered  float64
	Blackholed float64
	Lost       float64
	HopsSum    float64
}

// routingSample is one attacked deployment's routing measurements.
type routingSample struct {
	Pairs int
	Rows  map[string]routingCounts
}

// physicalReach reports whether a frame from node a (primary device)
// reaches some alive device claiming identity b — replicas included,
// which is how they attract traffic addressed to their stolen identity.
func physicalReach(l *deploy.Layout, r float64) func(a, b nodeid.ID) bool {
	return func(a, b nodeid.ID) bool {
		pa := l.Primary(a)
		if pa == nil || !pa.Alive {
			return false
		}
		// Iterator form: this predicate runs once per routing hop, so it
		// must not allocate a slice of devices each time.
		reached := false
		l.ForEachDeviceOf(b, func(d *deploy.Device) {
			if d.Alive && pa.Pos.InRange(d.Pos, r) {
				reached = true
			}
		})
		return reached
	}
}

func benignPairs(pos map[nodeid.ID]geometry.Point, compromised nodeid.Set, n int, rng *rand.Rand) []nodeid.Pair {
	ids := make([]nodeid.ID, 0, len(pos))
	for id := range pos {
		if !compromised.Contains(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	pairs := make([]nodeid.Pair, 0, n)
	for len(pairs) < n && len(ids) > 1 {
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		if a != b {
			pairs = append(pairs, nodeid.Pair{From: a, To: b})
		}
	}
	return pairs
}

func pathHitsCompromised(path []nodeid.ID, compromised nodeid.Set) bool {
	for _, id := range path {
		if compromised.Contains(id) {
			return true
		}
	}
	return false
}
