package exp

import (
	"fmt"
	"math/rand"

	"snd/internal/async"
	"snd/internal/crypto"
	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/radio"
	"snd/internal/runner"
	"snd/internal/sim"
	"snd/internal/stats"
	"snd/internal/topology"
	"snd/internal/verify"
)

// NoiseParams configures the direct-verifier noise ablation: how accuracy
// degrades when the substrate the paper treats as perfect (references
// [8]–[10], [15]) makes boundary errors.
type NoiseParams struct {
	Nodes     int
	FieldSide float64
	Range     float64
	Threshold int
	// Sigmas is the sweep of RTT distance-error standard deviations (m).
	Sigmas []float64
	Trials int
	Seed   int64
}

func (p *NoiseParams) applyDefaults() {
	mergeDefaults(p, NoiseParams{
		Nodes: 200, FieldSide: 100, Range: 50, Threshold: 30,
		Sigmas: []float64{0, 1, 2, 5, 10}, Trials: 5,
	})
}

// NoiseResult reports accuracy and rejected-record counts per noise level.
type NoiseResult struct {
	Accuracy stats.Series
	Rejected stats.Series
	HealthReport
}

// Table renders the result.
func (r *NoiseResult) Table() *stats.Table {
	return &stats.Table{
		Title:   "Ablation — RTT direct-verifier noise vs protocol accuracy",
		XLabel:  "sigma (m)",
		Series:  []*stats.Series{&r.Accuracy, &r.Rejected},
		Comment: "asymmetric verification errors surface as rejected binding records",
	}
}

// Render formats the table for terminal output.
func (r *NoiseResult) Render() string { return r.Table().Render() }

// planVerifierNoise builds the sweep that runs the ablation: the protocol
// over an RTT verifier whose distance estimates carry Gaussian error.
// Boundary errors make tentative relations asymmetric, which the protocol
// surfaces as rejected records (ErrNotTentative) and slightly reduced
// accuracy.
func planVerifierNoise(p NoiseParams) Sweep[noiseSample, *NoiseResult] {
	p.applyDefaults()
	return Sweep[noiseSample, *NoiseResult]{
		Name: "ablation-noise", Params: p, Points: len(p.Sigmas), Trials: p.Trials,
		Trial: func(point, trial int) (noiseSample, error) {
			sigma := p.Sigmas[point]
			seed := p.Seed + int64(sigma*100) + int64(trial)
			s, err := sim.New(sim.Params{
				Field: geometry.NewField(p.FieldSide, p.FieldSide), Range: p.Range,
				Nodes: p.Nodes, Threshold: p.Threshold, Seed: seed,
				Verifier: &verify.RTT{NoiseStd: sigma, Rng: rand.New(rand.NewSource(seed + 7))},
			})
			if err != nil {
				return noiseSample{}, err
			}
			defer s.Close()
			return noiseSample{Accuracy: s.Accuracy(), Rejected: s.ProtocolErrors()}, nil
		},
		Reduce: func(out *runner.Outcome[noiseSample]) (*NoiseResult, error) {
			res := &NoiseResult{
				Accuracy: stats.Series{Name: "accuracy"},
				Rejected: stats.Series{Name: "rejected records"},
			}
			for i, sigma := range p.Sigmas {
				var accs []float64
				rejected := 0
				for _, sample := range out.Points[i] {
					accs = append(accs, sample.Accuracy)
					rejected += sample.Rejected
				}
				sum := stats.Summarize(accs)
				res.Accuracy.Append(sigma, sum.Mean, sum.CI95())
				res.Rejected.Append(sigma, float64(rejected)/float64(len(out.Points[i])), 0)
			}
			return res, nil
		},
	}
}

// noiseSample is one noisy-verifier deployment.
type noiseSample struct {
	Accuracy float64
	Rejected int
}

// SchemeParams configures the key-predistribution ablation: the paper
// assumes every pair can establish a key; under Eschenauer–Gligor the
// coverage is probabilistic and gates record exchange.
type SchemeParams struct {
	Nodes     int
	FieldSide float64
	Range     float64
	Threshold int
	PoolSize  int
	// RingSizes is the sweep of per-node key ring sizes.
	RingSizes []int
	Seed      int64
}

func (p *SchemeParams) applyDefaults() {
	mergeDefaults(p, SchemeParams{
		Nodes: 150, FieldSide: 100, Range: 50, Threshold: 5, PoolSize: 1000,
		RingSizes: []int{20, 40, 80, 120, 200},
	})
}

// SchemeResult reports accuracy and key coverage per ring size.
type SchemeResult struct {
	Coverage stats.Series
	Accuracy stats.Series
	Failures stats.Series
	HealthReport
}

// Table renders the result.
func (r *SchemeResult) Table() *stats.Table {
	return &stats.Table{
		Title:   "Ablation — Eschenauer–Gligor key ring size vs protocol accuracy",
		XLabel:  "ring size k",
		Series:  []*stats.Series{&r.Coverage, &r.Accuracy, &r.Failures},
		Comment: "secure channels on: pairs without a shared pool key cannot exchange records",
	}
}

// Render formats the table for terminal output.
func (r *SchemeResult) Render() string { return r.Table().Render() }

// planSchemeAblation sweeps the EG ring size with secure channels enabled.
func planSchemeAblation(p SchemeParams) Sweep[schemeSample, *SchemeResult] {
	p.applyDefaults()
	return Sweep[schemeSample, *SchemeResult]{
		Name: "ablation-scheme", Params: p, Points: len(p.RingSizes), Trials: 1,
		Trial: func(point, _ int) (schemeSample, error) {
			ring := p.RingSizes[point]
			eg, err := crypto.NewEGScheme(p.PoolSize, ring, p.Seed+int64(ring))
			if err != nil {
				return schemeSample{}, err
			}
			// Provision generously: the layout assigns IDs sequentially.
			for id := 1; id <= 4*p.Nodes; id++ {
				eg.Provision(nodeid.ID(id))
			}
			s, err := sim.New(sim.Params{
				Field: geometry.NewField(p.FieldSide, p.FieldSide), Range: p.Range,
				Nodes: p.Nodes, Threshold: p.Threshold, Seed: p.Seed + int64(ring),
				Scheme: eg,
			})
			if err != nil {
				return schemeSample{}, err
			}
			defer s.Close()
			return schemeSample{
				Coverage: eg.ConnectivityEstimate(),
				Accuracy: s.Accuracy(),
				Failures: float64(s.ChannelFailures()),
			}, nil
		},
		Reduce: func(out *runner.Outcome[schemeSample]) (*SchemeResult, error) {
			res := &SchemeResult{
				Coverage: stats.Series{Name: "analytical key coverage"},
				Accuracy: stats.Series{Name: "accuracy"},
				Failures: stats.Series{Name: "channel failures"},
			}
			for i, ring := range p.RingSizes {
				for _, sample := range out.Points[i] {
					res.Coverage.Append(float64(ring), sample.Coverage, 0)
					res.Accuracy.Append(float64(ring), sample.Accuracy, 0)
					res.Failures.Append(float64(ring), sample.Failures, 0)
				}
			}
			return res, nil
		},
	}
}

// schemeSample is one key-ring configuration's measurement.
type schemeSample struct {
	Coverage float64
	Accuracy float64
	Failures float64
}

// EnginesParams configures the sync-vs-async engine equivalence check.
type EnginesParams struct {
	Nodes     int
	FieldSide float64
	Range     float64
	Threshold int
	Seed      int64
}

func (p *EnginesParams) applyDefaults() {
	mergeDefaults(p, EnginesParams{
		Nodes: 120, FieldSide: 100, Range: 50, Threshold: 10,
	})
}

// enginesSample is the single cached measurement of the comparison.
type enginesSample struct {
	SyncAccuracy  float64
	AsyncAccuracy float64
	SyncMessages  int
	AsyncMessages int
}

// EnginesResult compares the two engines over the same deployment.
type EnginesResult struct {
	SyncAccuracy  float64
	AsyncAccuracy float64
	SyncMessages  int
	AsyncMessages int
	HealthReport
}

// Render formats the comparison.
func (r *EnginesResult) Render() string {
	return fmt.Sprintf(
		"== Ablation — deterministic engine vs goroutine-per-node engine ==\n"+
			"sync  engine: accuracy %.4f, %d frames\n"+
			"async engine: accuracy %.4f, %d frames\n",
		r.SyncAccuracy, r.SyncMessages, r.AsyncAccuracy, r.AsyncMessages)
}

// planEngines builds the sweep that runs both engines over identical node
// positions and compares the functional topologies they produce. The
// protocol is deterministic given lossless delivery, so the accuracies must
// agree exactly.
func planEngines(p EnginesParams) Sweep[enginesSample, *EnginesResult] {
	p.applyDefaults()
	field := geometry.NewField(p.FieldSide, p.FieldSide)
	return Sweep[enginesSample, *EnginesResult]{
		Name: "ablation-engines", Params: p, Points: 1, Trials: 1,
		Trial: func(_, _ int) (enginesSample, error) {
			// Deterministic engine.
			s, err := sim.New(sim.Params{
				Field: field, Range: p.Range, Nodes: p.Nodes,
				Threshold: p.Threshold, Seed: p.Seed,
			})
			if err != nil {
				return enginesSample{}, err
			}
			defer s.Close()
			sample := enginesSample{
				SyncAccuracy: s.Accuracy(),
				SyncMessages: s.Medium().Counters().Sent,
			}

			// Rebuild the identical physical deployment for the async engine.
			layout := deploy.NewLayout(field)
			for _, d := range s.Layout().Devices() {
				layout.Deploy(d.Origin, 0)
			}
			medium := radio.NewMedium(layout, radio.Config{Range: p.Range, InboxSize: 8192, Seed: p.Seed})
			master, err := crypto.NewMasterKey(nil)
			if err != nil {
				return enginesSample{}, err
			}
			// The medium is lossless, so every node finishes on its own
			// records and DiscoverAll returns once the network is quiet.
			functional, err := async.DiscoverAll(layout, medium, master,
				async.Config{Threshold: p.Threshold}, verify.Oracle{})
			if err != nil {
				return enginesSample{}, err
			}
			sample.AsyncAccuracy = topology.Accuracy(functional, layout.TruthGraph(p.Range))
			sample.AsyncMessages = medium.Counters().Sent
			return sample, nil
		},
		Reduce: func(out *runner.Outcome[enginesSample]) (*EnginesResult, error) {
			if len(out.Points[0]) == 0 {
				return nil, fmt.Errorf("exp: engines comparison produced no sample")
			}
			s := out.Points[0][0]
			return &EnginesResult{
				SyncAccuracy:  s.SyncAccuracy,
				AsyncAccuracy: s.AsyncAccuracy,
				SyncMessages:  s.SyncMessages,
				AsyncMessages: s.AsyncMessages,
			}, nil
		},
	}
}
