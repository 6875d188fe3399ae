package exp

import (
	"fmt"
	"math/rand"

	"snd/internal/core"
	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/runner"
	"snd/internal/sim"
	"snd/internal/stats"
)

// SafetyParams configures the Theorem 3 audit (experiment E3): with at
// most t compromised nodes, every compromised identity's benign accepters
// must fit in a circle of radius 2R.
type SafetyParams struct {
	Nodes     int
	FieldSide float64
	Range     float64
	Threshold int
	// CompromiseCounts is the sweep of how many nodes the attacker
	// compromises (each ≤ Threshold for the guarantee to apply).
	CompromiseCounts []int
	Trials           int
	Seed             int64
}

func (p *SafetyParams) applyDefaults() {
	mergeDefaults(p, SafetyParams{
		Nodes: 300, FieldSide: 100, Range: 25, Threshold: 6,
		CompromiseCounts: []int{1, 2, 4, 6}, Trials: 10,
	})
}

// SafetyResult reports the audit sweep.
type SafetyResult struct {
	// Violations[i] is the fraction of trials at CompromiseCounts[i] with
	// any 2R-safety violation (must be 0 while counts ≤ t).
	ViolationRate stats.Series
	// WorstEnclosing is the maximum enclosing radius observed per count.
	WorstEnclosing stats.Series
	// Bound is 2R.
	Bound float64
	HealthReport
}

// Table renders the result.
func (r *SafetyResult) Table() *stats.Table {
	return &stats.Table{
		Title:   "Theorem 3 audit — 2R-safety under ≤ t compromised nodes",
		XLabel:  "#compromised",
		Series:  []*stats.Series{&r.ViolationRate, &r.WorstEnclosing},
		Comment: fmt.Sprintf("bound 2R = %.0f m; replicas planted at all four field corners", r.Bound),
	}
}

// Render formats the table for terminal output.
func (r *SafetyResult) Render() string { return r.Table().Render() }

// safetySample is one audited deployment.
type safetySample struct {
	Violated bool
	Worst    float64
}

// planSafety builds the sweep that runs E3: compromise k ≤ t random nodes,
// replicate each at every field corner, let a fresh wave of nodes deploy,
// and audit the 2R bound.
func planSafety(p SafetyParams) Sweep[safetySample, *SafetyResult] {
	p.applyDefaults()
	return Sweep[safetySample, *SafetyResult]{
		Name: "safety", Params: p, Points: len(p.CompromiseCounts), Trials: p.Trials,
		Trial: func(point, trial int) (safetySample, error) {
			k := p.CompromiseCounts[point]
			s, err := sim.New(sim.Params{
				Field:     geometry.NewField(p.FieldSide, p.FieldSide),
				Range:     p.Range,
				Nodes:     p.Nodes,
				Threshold: p.Threshold,
				Seed:      p.Seed + int64(k*1000+trial),
			})
			if err != nil {
				return safetySample{}, err
			}
			defer s.Close()
			victims, err := pickVictims(s, k)
			if err != nil {
				return safetySample{}, err
			}
			if err := s.Compromise(victims...); err != nil {
				return safetySample{}, err
			}
			inset := p.Range / 4
			corners := []geometry.Point{
				{X: inset, Y: inset},
				{X: p.FieldSide - inset, Y: inset},
				{X: inset, Y: p.FieldSide - inset},
				{X: p.FieldSide - inset, Y: p.FieldSide - inset},
			}
			for _, v := range victims {
				for _, c := range corners {
					if _, err := s.PlantReplica(v, c); err != nil {
						return safetySample{}, err
					}
				}
			}
			if err := s.DeployRound(p.Nodes / 3); err != nil {
				return safetySample{}, err
			}
			reports := s.AuditSafety(2 * p.Range)
			return safetySample{
				Violated: core.Violations(reports) > 0,
				Worst:    core.WorstCase(reports).EnclosingRadius,
			}, nil
		},
		Reduce: func(out *runner.Outcome[safetySample]) (*SafetyResult, error) {
			res := &SafetyResult{
				ViolationRate:  stats.Series{Name: "violation rate"},
				WorstEnclosing: stats.Series{Name: "worst enclosing radius (m)"},
				Bound:          2 * p.Range,
			}
			for i, k := range p.CompromiseCounts {
				violated, worst := 0, 0.0
				for _, sample := range out.Points[i] {
					if sample.Violated {
						violated++
					}
					if sample.Worst > worst {
						worst = sample.Worst
					}
				}
				res.ViolationRate.Append(float64(k), float64(violated)/float64(len(out.Points[i])), 0)
				res.WorstEnclosing.Append(float64(k), worst, 0)
			}
			return res, nil
		},
	}
}

// pickVictims selects k distinct random operational nodes spread across
// the field.
func pickVictims(s *sim.Simulation, k int) ([]nodeid.ID, error) {
	var candidates []nodeid.ID
	for _, d := range s.Layout().Devices() {
		if !d.Replica && d.Alive {
			candidates = append(candidates, d.Node)
		}
	}
	if len(candidates) < k {
		return nil, fmt.Errorf("exp: only %d candidates for %d victims", len(candidates), k)
	}
	rng := rand.New(rand.NewSource(int64(len(candidates))*31 + int64(k)))
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	return candidates[:k], nil
}

// BreakdownParams configures E4: the clone-clique attack with clique size
// sweeping past the threshold, showing where the guarantee stops.
type BreakdownParams struct {
	Nodes     int
	FieldSide float64
	Range     float64
	Threshold int
	// CliqueSizes is the sweep (default 2..t+3).
	CliqueSizes []int
	Trials      int
	Seed        int64
}

func (p *BreakdownParams) applyDefaults() {
	mergeDefaults(p, BreakdownParams{
		Nodes: 300, FieldSide: 100, Range: 20, Threshold: 4, Trials: 10,
	})
	// The clique-size grid depends on the (possibly defaulted) threshold.
	if len(p.CliqueSizes) == 0 {
		p.CliqueSizes = seqInts(2, p.Threshold+3, 1)
	}
}

// BreakdownResult reports violation rates against clique size.
type BreakdownResult struct {
	ViolationRate stats.Series
	Threshold     int
	Bound         float64
	HealthReport
}

// Table renders the result.
func (r *BreakdownResult) Table() *stats.Table {
	return &stats.Table{
		Title:  "Threshold breakdown — clone-clique attack vs clique size k",
		XLabel: "k (clique size)",
		Series: []*stats.Series{&r.ViolationRate},
		Comment: fmt.Sprintf("t = %d: guarantee holds for k ≤ t+1 = %d, breaks at k ≥ t+2 = %d (bound 2R = %.0f m)",
			r.Threshold, r.Threshold+1, r.Threshold+2, r.Bound),
	}
}

// Render formats the table for terminal output.
func (r *BreakdownResult) Render() string { return r.Table().Render() }

// breakdownSample is one clone-clique trial.
type breakdownSample struct {
	Violated bool
}

// planBreakdown builds the sweep that runs E4: for each clique size k,
// compromise a co-located k-clique, replicate it at the far corner, steer
// fresh nodes there, and measure how often 2R-safety is violated. The
// transition at k = t+2 shows the threshold guarantee of Theorem 3 is tight.
func planBreakdown(p BreakdownParams) Sweep[breakdownSample, *BreakdownResult] {
	p.applyDefaults()
	return Sweep[breakdownSample, *BreakdownResult]{
		Name: "breakdown", Params: p, Points: len(p.CliqueSizes), Trials: p.Trials,
		Trial: func(point, trial int) (breakdownSample, error) {
			k := p.CliqueSizes[point]
			s, err := sim.New(sim.Params{
				Field:     geometry.NewField(p.FieldSide, p.FieldSide),
				Range:     p.Range,
				Nodes:     p.Nodes,
				Threshold: p.Threshold,
				Seed:      p.Seed + int64(k*1000+trial),
			})
			if err != nil {
				return breakdownSample{}, err
			}
			defer s.Close()
			_, target, err := s.CloneCliqueAttack(k, geometry.Point{})
			if err != nil {
				return breakdownSample{}, err
			}
			staging := geometry.Rect{
				Min: geometry.Point{X: target.X - 15, Y: target.Y - 15},
				Max: geometry.Point{X: target.X + 15, Y: target.Y + 15},
			}
			if err := s.DeployRoundAt(p.Nodes/10, deploy.Within{Region: staging}); err != nil {
				return breakdownSample{}, err
			}
			return breakdownSample{Violated: core.Violations(s.AuditSafety(2*p.Range)) > 0}, nil
		},
		Reduce: func(out *runner.Outcome[breakdownSample]) (*BreakdownResult, error) {
			res := &BreakdownResult{
				ViolationRate: stats.Series{Name: "violation rate"},
				Threshold:     p.Threshold,
				Bound:         2 * p.Range,
			}
			for i, k := range p.CliqueSizes {
				violated := 0
				for _, sample := range out.Points[i] {
					if sample.Violated {
						violated++
					}
				}
				res.ViolationRate.Append(float64(k), float64(violated)/float64(len(out.Points[i])), 0)
			}
			return res, nil
		},
	}
}

// UpdateParams configures E9: the binding-record update extension in an
// aging network, and the (m+1)R safety bound of Theorem 4.
type UpdateParams struct {
	Nodes     int
	FieldSide float64
	Range     float64
	Threshold int
	// UpdateBudgets is the sweep of m values.
	UpdateBudgets []int
	// Waves is how many redeployment waves the aging network receives.
	Waves  int
	Trials int
	Seed   int64
}

func (p *UpdateParams) applyDefaults() {
	mergeDefaults(p, UpdateParams{
		Nodes: 200, FieldSide: 100, Range: 25, Threshold: 4,
		UpdateBudgets: []int{0, 1, 2, 3}, Waves: 3, Trials: 5,
	})
}

// UpdateResult reports accuracy and safety as functions of the update
// budget m.
type UpdateResult struct {
	Accuracy stats.Series
	// MaxReach is the largest compromised-node reach observed; Theorem 4
	// bounds it by (m+1)R.
	MaxReach stats.Series
	// TheoremBound is the (m+1)R curve for reference.
	TheoremBound stats.Series
	Range        float64
	HealthReport
}

// Table renders the result.
func (r *UpdateResult) Table() *stats.Table {
	return &stats.Table{
		Title:   "Update extension — aging-network accuracy and (m+1)R safety vs update budget m",
		XLabel:  "m",
		Series:  []*stats.Series{&r.Accuracy, &r.MaxReach, &r.TheoremBound},
		Comment: fmt.Sprintf("R = %.0f m; 30%% battery death then redeployment waves; one compromised node replicated mid-field", r.Range),
	}
}

// Render formats the table for terminal output.
func (r *UpdateResult) Render() string { return r.Table().Render() }

// updateSample is one aging-network trial.
type updateSample struct {
	Accuracy float64
	MaxReach float64
}

// planUpdate builds the sweep that runs E9: an aging network (battery
// deaths, redeployment waves) under each update budget m. Accuracy should
// improve with m (old nodes can re-bind to include newcomers); the
// compromised node's reach must stay within (m+1)·R as its replica exploits
// the same update mechanism.
func planUpdate(p UpdateParams) Sweep[updateSample, *UpdateResult] {
	p.applyDefaults()
	return Sweep[updateSample, *UpdateResult]{
		Name: "update", Params: p, Points: len(p.UpdateBudgets), Trials: p.Trials,
		Trial: func(point, trial int) (updateSample, error) {
			m := p.UpdateBudgets[point]
			s, err := sim.New(sim.Params{
				Field:      geometry.NewField(p.FieldSide, p.FieldSide),
				Range:      p.Range,
				Nodes:      p.Nodes,
				Threshold:  p.Threshold,
				MaxUpdates: m,
				Seed:       p.Seed + int64(m*1000+trial),
			})
			if err != nil {
				return updateSample{}, err
			}
			defer s.Close()
			// Compromise one node and plant a replica 3R away, where the
			// update mechanism is its only path to new functional links.
			victim := s.Layout().ClosestToCenter()
			if err := s.Compromise(victim.Node); err != nil {
				return updateSample{}, err
			}
			pos := s.Params().Field.Clamp(victim.Origin.Add(geometry.Point{X: 3 * p.Range, Y: 0}))
			if _, err := s.PlantReplica(victim.Node, pos); err != nil {
				return updateSample{}, err
			}
			s.KillFraction(0.3)
			for w := 0; w < p.Waves; w++ {
				if err := s.DeployRound(p.Nodes / 5); err != nil {
					return updateSample{}, err
				}
			}
			sample := updateSample{Accuracy: s.Accuracy()}
			for _, r := range s.AuditSafety(float64(max(m, 1)+1) * p.Range) {
				if r.Reach > sample.MaxReach {
					sample.MaxReach = r.Reach
				}
			}
			return sample, nil
		},
		Reduce: func(out *runner.Outcome[updateSample]) (*UpdateResult, error) {
			res := &UpdateResult{
				Accuracy:     stats.Series{Name: "accuracy"},
				MaxReach:     stats.Series{Name: "max compromised reach (m)"},
				TheoremBound: stats.Series{Name: "(m+1)R bound"},
				Range:        p.Range,
			}
			for i, m := range p.UpdateBudgets {
				var accs []float64
				maxReach := 0.0
				for _, sample := range out.Points[i] {
					accs = append(accs, sample.Accuracy)
					if sample.MaxReach > maxReach {
						maxReach = sample.MaxReach
					}
				}
				sum := stats.Summarize(accs)
				res.Accuracy.Append(float64(m), sum.Mean, sum.CI95())
				res.MaxReach.Append(float64(m), maxReach, 0)
				res.TheoremBound.Append(float64(m), float64(max(m, 1)+1)*p.Range, 0)
			}
			return res, nil
		},
	}
}
