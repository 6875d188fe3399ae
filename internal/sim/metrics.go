package sim

import (
	"snd/internal/core"
	"snd/internal/deploy"
	"snd/internal/nodeid"
	"snd/internal/topology"
)

// FunctionalGraph assembles the functional network topology Ḡ from the
// functional neighbor lists of every original (non-replica) device's
// protocol endpoint: the edge (u, v) means node u uses v as a functional
// neighbor.
func (s *Simulation) FunctionalGraph() *topology.Graph {
	b := topology.NewBuilder()
	s.layout.ForEachDevice(func(d *deploy.Device) {
		if d.Replica || !d.Alive {
			return
		}
		ep := s.a.endpoint(d.Handle)
		if ep == nil {
			return
		}
		b.AddNode(d.Node)
		for v := range ep.Functional() {
			b.AddRelation(d.Node, v)
		}
	})
	return b.Finalize()
}

// Accuracy returns the paper's accuracy metric: the fraction of actual
// neighbor relations of benign nodes that appear in the functional
// topology (Section 3.2 / Section 4.5's "fraction of actual neighbors that
// are included in the functional neighbor lists of benign sensor nodes").
func (s *Simulation) Accuracy() float64 {
	truth := s.layout.TruthGraph(s.params.Range)
	functional := s.FunctionalGraph()
	compromised := s.attacker.Compromised()
	total, kept := 0, 0
	for _, u := range truth.Nodes() {
		if compromised.Contains(u) {
			continue
		}
		truth.ForEachOut(u, func(v nodeid.ID) {
			total++
			if functional.HasRelation(u, v) {
				kept++
			}
		})
	}
	if total == 0 {
		return 1
	}
	return float64(kept) / float64(total)
}

// CenterAccuracy returns the validated-neighbor fraction of the node
// closest to the field center — Figure 3's methodology ("We focus on the
// sensor node located at the center of this field and obtain the
// simulation data from this node"), which avoids border effects.
func (s *Simulation) CenterAccuracy() float64 {
	d := s.layout.ClosestToCenter()
	if d == nil {
		return 1
	}
	ep := s.a.endpoint(d.Handle)
	if ep == nil {
		return 1
	}
	truth := s.layout.TruthGraph(s.params.Range)
	deg := truth.OutLen(d.Node)
	if deg == 0 {
		return 1
	}
	functional := ep.Functional()
	kept := 0
	truth.ForEachOut(d.Node, func(v nodeid.ID) {
		if functional.Contains(v) {
			kept++
		}
	})
	return float64(kept) / float64(deg)
}

// AuditSafety evaluates the d-safety property for every compromised node
// against the given bound (2R for the base protocol, (m+1)R with updates).
func (s *Simulation) AuditSafety(bound float64) []core.SafetyReport {
	return core.AuditSafety(s.layout, s.FunctionalGraph(), s.attacker.Compromised(), bound)
}

// Overhead aggregates the paper's Section 4.3 overhead metrics across the
// benign network.
type Overhead struct {
	// MessagesPerNode is the mean number of frames transmitted per benign
	// device.
	MessagesPerNode float64
	// BytesPerNode is the mean payload bytes transmitted per benign device.
	BytesPerNode float64
	// HashOpsPerNode is the mean number of hash computations per node.
	HashOpsPerNode float64
	// StorageMeanBytes and StorageMaxBytes summarize persistent protocol
	// state per node.
	StorageMeanBytes float64
	StorageMaxBytes  int
	// EvidenceMean is the mean number of buffered relation evidences.
	EvidenceMean float64
	// EnergyPerNode is the mean radio energy spent per benign device, in
	// the medium's energy-model units (µJ-scale by default).
	EnergyPerNode float64
}

// Overhead computes the overhead report over alive original devices.
func (s *Simulation) Overhead() Overhead {
	var (
		o     Overhead
		count int
	)
	s.layout.ForEachDevice(func(d *deploy.Device) {
		if d.Replica || !d.Alive {
			return
		}
		ep := s.a.endpoint(d.Handle)
		if ep == nil {
			return
		}
		count++
		o.MessagesPerNode += float64(s.medium.SentBy(d.Handle))
		o.BytesPerNode += float64(s.medium.BytesSentBy(d.Handle))
		o.EnergyPerNode += s.medium.EnergyUsedBy(d.Handle)
		o.HashOpsPerNode += float64(ep.HashOps())
		storage := ep.StorageBytes()
		o.StorageMeanBytes += float64(storage)
		if storage > o.StorageMaxBytes {
			o.StorageMaxBytes = storage
		}
		o.EvidenceMean += float64(ep.EvidenceCount())
	})
	if count == 0 {
		return Overhead{}
	}
	n := float64(count)
	o.MessagesPerNode /= n
	o.BytesPerNode /= n
	o.EnergyPerNode /= n
	o.HashOpsPerNode /= n
	o.StorageMeanBytes /= n
	o.EvidenceMean /= n
	return o
}
