package exp

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"snd/internal/adversary"
	"snd/internal/central"
	"snd/internal/core"
	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/replica"
	"snd/internal/runner"
	"snd/internal/sim"
	"snd/internal/stats"
	"snd/internal/topology"
	"snd/internal/verify"
)

// ImpossibilityParams configures E5: the Theorem 1/2 substitution attack
// against topology-only validation, contrasted with the paper's protocol
// under the same adversary.
type ImpossibilityParams struct {
	Nodes     int
	FieldSide float64
	Range     float64
	Threshold int
	Trials    int
	Seed      int64
	// Engine executes the trials; nil uses runner.Default().
	Engine *runner.Engine `json:"-"`
}

func (p *ImpossibilityParams) applyDefaults() {
	mergeDefaults(p, ImpossibilityParams{
		Nodes: 300, FieldSide: 100, Range: 25, Threshold: 4, Trials: 20,
	})
}

// ImpossibilityResult compares attack success against the two validator
// families.
type ImpossibilityResult struct {
	// TopologyOnlySuccess is the fraction of trials where the forged
	// relations made a distant benign target validate the compromised node
	// under the topology-only common-neighbor rule.
	TopologyOnlySuccess float64
	// TopologyOnlyReach is the mean distance (m) between the fooled target
	// and the compromised node's origin in successful trials.
	TopologyOnlyReach float64
	// ProtocolSuccess is the fraction of trials where a replica of the
	// compromised node achieved functional acceptance beyond 2R under the
	// paper's protocol.
	ProtocolSuccess float64
	Bound           float64
	HealthReport
}

// Render formats the comparison.
func (r *ImpossibilityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Theorems 1-2 — generic attack vs localized validation ==\n")
	fmt.Fprintf(&b, "%-38s %14s %18s\n", "validator", "attack success", "mean fooled reach")
	fmt.Fprintf(&b, "%-38s %13.0f%% %16.1f m\n", "common-neighbor (topology only)",
		100*r.TopologyOnlySuccess, r.TopologyOnlyReach)
	fmt.Fprintf(&b, "%-38s %13.0f%% %18s\n", "paper protocol (crypto binding)",
		100*r.ProtocolSuccess, "≤ 2R by Thm 3")
	fmt.Fprintf(&b, "bound 2R = %.0f m\n", r.Bound)
	return b.String()
}

// impossibilitySample is one trial of the Theorem 1/2 contrast.
type impossibilitySample struct {
	TopoWin  bool
	Reach    float64
	ProtoWin bool
}

// Impossibility runs E5. For the topology-only rule, the attacker uses the
// Theorem 2 substitution: compromise one node, forge relations around a
// benign target on the far side of the field, and win. Against the paper's
// protocol, the same adversary plants a physical replica next to the
// target area and fresh nodes still reject it.
func Impossibility(ctx context.Context, p ImpossibilityParams) (*ImpossibilityResult, error) {
	p.applyDefaults()
	rule := topology.CommonNeighborRule{Threshold: p.Threshold}
	return runGrid(ctx, p.Engine, grid[impossibilitySample]{
		Name: "impossibility", Params: p, Points: 1, Trials: p.Trials,
		Trial: func(_, trial int) (impossibilitySample, error) {
			seed := p.Seed + int64(trial)
			var sample impossibilitySample
			// --- Topology-only validator under the substitution attack.
			l := deploy.NewLayout(geometry.NewField(p.FieldSide, p.FieldSide))
			rng := rand.New(rand.NewSource(seed))
			l.DeploySampled(deploy.Uniform{}, p.Nodes, rng, 0)
			tent := verify.TentativeGraph(l, verify.Oracle{}, p.Range)

			victim, target := farthestPair(l)
			if victim == nil || target == nil {
				return sample, nil
			}
			att := adversary.New(seed)
			// The graph-level attack needs only the right to forge relations
			// regarding the compromised identity.
			att.MarkCompromised(victim.Node)
			forged, err := att.ForgeSubstitution(tent, rule, target.Node, victim.Node)
			if err == nil {
				if rule.Validate(target.Node, victim.Node, adversary.InjectRelations(tent, forged)) {
					sample.TopoWin = true
					sample.Reach = victim.Origin.Dist(target.Origin)
				}
			}

			// --- The paper's protocol under the physical-replica version of
			// the same adversary.
			ps, err := sim.New(sim.Params{
				Field: geometry.NewField(p.FieldSide, p.FieldSide), Range: p.Range,
				Nodes: p.Nodes, Threshold: p.Threshold, Seed: seed,
			})
			if err != nil {
				return sample, err
			}
			defer ps.Close()
			pv, pt := farthestPair(ps.Layout())
			if pv == nil || pt == nil {
				return sample, nil
			}
			if err := ps.Compromise(pv.Node); err != nil {
				return sample, err
			}
			if _, err := ps.PlantReplica(pv.Node, pt.Origin); err != nil {
				return sample, err
			}
			staging := geometry.Rect{
				Min: geometry.Point{X: pt.Origin.X - 15, Y: pt.Origin.Y - 15},
				Max: geometry.Point{X: pt.Origin.X + 15, Y: pt.Origin.Y + 15},
			}
			if err := ps.DeployRoundAt(p.Nodes/10, deploy.Within{Region: staging}); err != nil {
				return sample, err
			}
			sample.ProtoWin = core.Violations(ps.AuditSafety(2*p.Range)) > 0
			return sample, nil
		},
	}, func(out *runner.Outcome[impossibilitySample]) (*ImpossibilityResult, error) {
		res := &ImpossibilityResult{Bound: 2 * p.Range}
		var reachSum float64
		var topoWins, protoWins int
		for _, sample := range out.Points[0] {
			if sample.TopoWin {
				topoWins++
				reachSum += sample.Reach
			}
			if sample.ProtoWin {
				protoWins++
			}
		}
		res.TopologyOnlySuccess = float64(topoWins) / float64(p.Trials)
		if topoWins > 0 {
			res.TopologyOnlyReach = reachSum / float64(topoWins)
		}
		res.ProtocolSuccess = float64(protoWins) / float64(p.Trials)
		return res, nil
	})
}

// farthestPair returns the two alive non-replica devices with the largest
// separation.
func farthestPair(l *deploy.Layout) (a, b *deploy.Device) {
	devs := l.Devices()
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

// CompareParams configures E8: the quantitative version of the paper's
// Section 4.5 comparison against Parno et al.
type CompareParams struct {
	Nodes     int
	FieldSide float64
	Range     float64
	Threshold int
	Trials    int
	Seed      int64
	// Engine executes the trials; nil uses runner.Default().
	Engine *runner.Engine `json:"-"`
}

func (p *CompareParams) applyDefaults() {
	mergeDefaults(p, CompareParams{
		Nodes: 150, FieldSide: 100, Range: 25, Threshold: 4, Trials: 10,
	})
}

// CompareRow is one scheme's line in the comparison table.
type CompareRow struct {
	Scheme string
	// Defense is the detection rate (baselines) or prevention rate (the
	// paper's protocol: replica gained no acceptance beyond 2R).
	Defense float64
	// Mode describes what Defense measures.
	Mode string
	// MsgsPerNode is the mean communication overhead.
	MsgsPerNode float64
	// StoragePerNode is claims (baselines) or bytes (protocol) per node.
	StoragePerNode float64
	StorageUnit    string
	// NeedsLocation marks dependence on secure location information.
	NeedsLocation bool
}

// CompareResult is the Section 4.5 comparison table.
type CompareResult struct {
	Rows []CompareRow
	HealthReport
}

// Render formats the comparison table.
func (r *CompareResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Comparison with Parno et al. (replication attack, paper Section 4.5) ==\n")
	fmt.Fprintf(&b, "%-28s %10s %-11s %12s %16s %14s\n",
		"scheme", "defense", "mode", "msgs/node", "storage/node", "needs location")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %9.0f%% %-11s %12.1f %11.1f %s %14v\n",
			row.Scheme, 100*row.Defense, row.Mode, row.MsgsPerNode,
			row.StoragePerNode, row.StorageUnit, row.NeedsLocation)
	}
	return b.String()
}

// compareSample is one trial of the Section 4.5 comparison: the per-scheme
// measurements of a single attacked deployment.
type compareSample struct {
	RmDetect, LsmDetect   bool
	RmMsgs, LsmMsgs       float64
	RmStore, LsmStore     float64
	CentDetect            bool
	CentMsgs, CentBytes   float64
	ProtoPrevent          bool
	ProtoMsgs, ProtoStore float64
}

// Compare runs E8: a replication attack (one compromised node, one far
// replica) against (a) no defense, (b) randomized multicast, (c)
// line-selected multicast, and (d) this paper's protocol, measuring
// defense rate and overhead for each.
func Compare(ctx context.Context, p CompareParams) (*CompareResult, error) {
	p.applyDefaults()
	return runGrid(ctx, p.Engine, grid[compareSample]{
		Name: "compare", Params: p, Points: 1, Trials: p.Trials,
		Trial: func(_, trial int) (compareSample, error) {
			seed := p.Seed + int64(trial)
			var sample compareSample
			// Baselines run over a static attacked layout.
			l := deploy.NewLayout(geometry.NewField(p.FieldSide, p.FieldSide))
			rng := rand.New(rand.NewSource(seed))
			l.DeploySampled(deploy.Uniform{}, p.Nodes, rng, 0)
			victim, far := farthestPair(l)
			if _, err := l.DeployReplica(victim.Node, far.Origin, 1); err != nil {
				return sample, err
			}
			net := replica.BuildNetwork(l, p.Range, []byte("compare"))
			cfg := replica.RecommendedConfig(net)
			rm := replica.RandomizedMulticast(net, cfg, rand.New(rand.NewSource(seed+500)))
			lsm := replica.LineSelectedMulticast(net,
				replica.Config{ForwardProb: cfg.ForwardProb, Witnesses: 1},
				rand.New(rand.NewSource(seed+900)))
			sample.RmDetect = rm.Detected
			sample.LsmDetect = lsm.Detected
			sample.RmMsgs = float64(rm.Messages) / float64(net.Size())
			sample.LsmMsgs = float64(lsm.Messages) / float64(net.Size())
			sample.RmStore = float64(rm.MaxStored)
			sample.LsmStore = float64(lsm.MaxStored)

			// The centralized alternative (paper Section 4 opening): a base
			// station gathers the whole tentative topology and looks for
			// identities whose neighborhood splits into disconnected patches.
			tent := verify.TentativeGraph(l, verify.Oracle{}, p.Range)
			for _, id := range central.DetectSplitNeighborhoods(tent, 2) {
				if id == victim.Node {
					sample.CentDetect = true
					break
				}
			}
			cost := central.CollectionCost(l, p.Range, geometry.Point{X: p.FieldSide / 2, Y: p.FieldSide / 2},
				func(id nodeid.ID) int { return 8 + 4*tent.OutLen(id) })
			sample.CentMsgs = float64(cost.Messages) / float64(net.Size())
			sample.CentBytes = float64(cost.Bytes) / float64(net.Size())

			// The paper's protocol under the same attack, end to end.
			s, err := sim.New(sim.Params{
				Field: geometry.NewField(p.FieldSide, p.FieldSide), Range: p.Range,
				Nodes: p.Nodes, Threshold: p.Threshold, Seed: seed,
			})
			if err != nil {
				return sample, err
			}
			defer s.Close()
			sv, sfar := farthestPair(s.Layout())
			if err := s.Compromise(sv.Node); err != nil {
				return sample, err
			}
			if _, err := s.PlantReplica(sv.Node, sfar.Origin); err != nil {
				return sample, err
			}
			staging := geometry.Rect{
				Min: geometry.Point{X: sfar.Origin.X - 15, Y: sfar.Origin.Y - 15},
				Max: geometry.Point{X: sfar.Origin.X + 15, Y: sfar.Origin.Y + 15},
			}
			if err := s.DeployRoundAt(p.Nodes/10, deploy.Within{Region: staging}); err != nil {
				return sample, err
			}
			sample.ProtoPrevent = core.Violations(s.AuditSafety(2*p.Range)) == 0
			o := s.Overhead()
			sample.ProtoMsgs = o.MessagesPerNode
			sample.ProtoStore = o.StorageMeanBytes
			return sample, nil
		},
	}, func(out *runner.Outcome[compareSample]) (*CompareResult, error) {
		var (
			rmDetect, lsmDetect, rmMsgs, lsmMsgs   float64
			rmStore, lsmStore                      float64
			protoPrevent, protoMsgs, protoStoreSum float64
			centDetect, centMsgs, centBytes        float64
		)
		for _, sample := range out.Points[0] {
			if sample.RmDetect {
				rmDetect++
			}
			if sample.LsmDetect {
				lsmDetect++
			}
			rmMsgs += sample.RmMsgs
			lsmMsgs += sample.LsmMsgs
			rmStore += sample.RmStore
			lsmStore += sample.LsmStore
			if sample.CentDetect {
				centDetect++
			}
			centMsgs += sample.CentMsgs
			centBytes += sample.CentBytes
			if sample.ProtoPrevent {
				protoPrevent++
			}
			protoMsgs += sample.ProtoMsgs
			protoStoreSum += sample.ProtoStore
		}
		n := float64(len(out.Points[0]))
		return &CompareResult{Rows: []CompareRow{
			{
				Scheme: "no defense", Defense: 0, Mode: "detection",
				MsgsPerNode: 0, StoragePerNode: 0, StorageUnit: "claims", NeedsLocation: false,
			},
			{
				Scheme: "randomized multicast", Defense: rmDetect / n, Mode: "detection",
				MsgsPerNode: rmMsgs / n, StoragePerNode: rmStore / n, StorageUnit: "claims",
				NeedsLocation: true,
			},
			{
				Scheme: "line-selected multicast", Defense: lsmDetect / n, Mode: "detection",
				MsgsPerNode: lsmMsgs / n, StoragePerNode: lsmStore / n, StorageUnit: "claims",
				NeedsLocation: true,
			},
			{
				Scheme: "centralized (base station)", Defense: centDetect / n, Mode: "detection",
				MsgsPerNode: centMsgs / n, StoragePerNode: centBytes / n, StorageUnit: "B relayed",
				NeedsLocation: false,
			},
			{
				Scheme: "snd protocol (this paper)", Defense: protoPrevent / n, Mode: "prevention",
				MsgsPerNode: protoMsgs / n, StoragePerNode: protoStoreSum / n, StorageUnit: "bytes",
				NeedsLocation: false,
			},
		}}, nil
	})
}

// HostileParams configures E10: a non-jamming active attacker flooding
// forged protocol traffic.
type HostileParams struct {
	Nodes      int
	FieldSide  float64
	Range      float64
	Threshold  int
	FloodCount int
	Trials     int
	Seed       int64
	// Engine executes the trials; nil uses runner.Default().
	Engine *runner.Engine `json:"-"`
}

func (p *HostileParams) applyDefaults() {
	mergeDefaults(p, HostileParams{
		Nodes: 150, FieldSide: 100, Range: 50, FloodCount: 500, Trials: 5,
	})
}

// HostileResult compares accuracy before and after the forged-traffic
// flood.
type HostileResult struct {
	AccuracyBefore  float64
	AccuracyAfter   float64
	ForgedRejected  int
	FloodsDelivered int
	HealthReport
}

// Render formats the result.
func (r *HostileResult) Render() string {
	return fmt.Sprintf(
		"== Hostile (non-jamming) attacker — Section 4.4.2 ==\n"+
			"accuracy before flood: %.4f\naccuracy after  flood: %.4f\n"+
			"forged messages rejected: %d\n",
		r.AccuracyBefore, r.AccuracyAfter, r.ForgedRejected)
}

// hostileSample is one forged-flood trial.
type hostileSample struct {
	Before   float64
	After    float64
	Rejected int
}

// Hostile runs E10: a replica floods forged records, commitments and
// garbage at its neighborhood; benign accuracy must not move.
func Hostile(ctx context.Context, p HostileParams) (*HostileResult, error) {
	p.applyDefaults()
	return runGrid(ctx, p.Engine, grid[hostileSample]{
		Name: "hostile", Params: p, Points: 1, Trials: p.Trials,
		Trial: func(_, trial int) (hostileSample, error) {
			var sample hostileSample
			s, err := sim.New(sim.Params{
				Field: geometry.NewField(p.FieldSide, p.FieldSide), Range: p.Range,
				Nodes: p.Nodes, Threshold: p.Threshold, Seed: p.Seed + int64(trial),
			})
			if err != nil {
				return sample, err
			}
			defer s.Close()
			sample.Before = s.Accuracy()
			victim := s.Layout().ClosestToCenter()
			if err := s.Compromise(victim.Node); err != nil {
				return sample, err
			}
			rep, err := s.PlantReplica(victim.Node, geometry.Point{X: 20, Y: 20})
			if err != nil {
				return sample, err
			}
			if err := s.ForgeFlood(rep.Handle, p.FloodCount); err != nil {
				return sample, err
			}
			sample.After = s.Accuracy()
			sample.Rejected = s.ProtocolErrors()
			return sample, nil
		},
	}, func(out *runner.Outcome[hostileSample]) (*HostileResult, error) {
		res := &HostileResult{}
		var before, after float64
		rejected := 0
		for _, sample := range out.Points[0] {
			before += sample.Before
			after += sample.After
			rejected += sample.Rejected
		}
		n := float64(len(out.Points[0]))
		res.AccuracyBefore = before / n
		res.AccuracyAfter = after / n
		res.ForgedRejected = rejected
		return res, nil
	})
}

// OverheadParams configures E7: protocol overhead against network size.
type OverheadParams struct {
	FieldSide float64
	Range     float64
	Threshold int
	Sizes     []int
	Seed      int64
	// Engine executes the trials; nil uses runner.Default().
	Engine *runner.Engine `json:"-"`
}

func (p *OverheadParams) applyDefaults() {
	mergeDefaults(p, OverheadParams{
		FieldSide: 100, Range: 50, Threshold: 10, Sizes: []int{100, 200, 300, 400},
	})
}

// OverheadResult reports per-node overhead curves.
type OverheadResult struct {
	Messages stats.Series
	Bytes    stats.Series
	HashOps  stats.Series
	Storage  stats.Series
	HealthReport
}

// Table renders the result.
func (r *OverheadResult) Table() *stats.Table {
	return &stats.Table{
		Title:   "Section 4.3 — per-node protocol overhead vs network size",
		XLabel:  "nodes",
		Series:  []*stats.Series{&r.Messages, &r.Bytes, &r.HashOps, &r.Storage},
		Comment: "single deployment round; 100x100 m field, R = 50 m",
	}
}

// Render formats the table for terminal output.
func (r *OverheadResult) Render() string { return r.Table().Render() }

// overheadSample is one network size's overhead measurement.
type overheadSample struct {
	Messages float64
	Bytes    float64
	HashOps  float64
	Storage  float64
}

// OverheadSweep runs E7 across network sizes, one point per size.
func OverheadSweep(ctx context.Context, p OverheadParams) (*OverheadResult, error) {
	p.applyDefaults()
	return runGrid(ctx, p.Engine, grid[overheadSample]{
		Name: "overhead", Params: p, Points: len(p.Sizes), Trials: 1,
		Trial: func(point, _ int) (overheadSample, error) {
			n := p.Sizes[point]
			s, err := sim.New(sim.Params{
				Field: geometry.NewField(p.FieldSide, p.FieldSide), Range: p.Range,
				Nodes: n, Threshold: p.Threshold, Seed: p.Seed + int64(n),
			})
			if err != nil {
				return overheadSample{}, err
			}
			defer s.Close()
			o := s.Overhead()
			return overheadSample{
				Messages: o.MessagesPerNode,
				Bytes:    o.BytesPerNode,
				HashOps:  o.HashOpsPerNode,
				Storage:  o.StorageMeanBytes,
			}, nil
		},
	}, func(out *runner.Outcome[overheadSample]) (*OverheadResult, error) {
		res := &OverheadResult{
			Messages: stats.Series{Name: "msgs/node"},
			Bytes:    stats.Series{Name: "bytes/node"},
			HashOps:  stats.Series{Name: "hash ops/node"},
			Storage:  stats.Series{Name: "storage bytes/node"},
		}
		for i, n := range p.Sizes {
			for _, sample := range out.Points[i] {
				res.Messages.Append(float64(n), sample.Messages, 0)
				res.Bytes.Append(float64(n), sample.Bytes, 0)
				res.HashOps.Append(float64(n), sample.HashOps, 0)
				res.Storage.Append(float64(n), sample.Storage, 0)
			}
		}
		return res, nil
	})
}
