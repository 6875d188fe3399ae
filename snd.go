// Package snd is a Go implementation of the localized secure neighbor
// discovery protocol from "Protecting Neighbor Discovery Against Node
// Compromises in Sensor Networks" (Donggang Liu, ICDCS 2009), together with
// everything needed to study it: a wireless sensor network simulator,
// direct neighbor verification mechanisms, key predistribution schemes, an
// attacker with replication/forgery/jamming capabilities, the Parno et al.
// replica-detection baselines, and runners for every experiment in the
// paper's evaluation.
//
// # The protocol in one paragraph
//
// Every node ships with a network-wide master key K and a threshold t.
// Right after deployment — inside the window where a node is still
// trustworthy — it discovers its tentative neighbor list N(u), commits to
// it (C(u) = H(K‖N(u)‖u)), authenticates the neighbors' own binding
// records with K, accepts neighbor v as functional iff
// |N(u) ∩ N(v)| ≥ t+1, hands each accepted v the relation commitment
// C(u,v) = H(K_v‖u), and then erases K forever. A compromised node's
// binding record pins it to its original neighborhood: with at most t
// compromised nodes, no identity gains functional acceptance outside a
// circle of radius 2R around its original deployment point (Theorem 3),
// and at most (m+1)·R when records can be updated m times (Theorem 4).
//
// # Quick start
//
//	s, err := snd.NewSimulation(snd.SimParams{Nodes: 200, Threshold: 30, Seed: 1})
//	if err != nil { ... }
//	fmt.Printf("accuracy: %.3f\n", s.Accuracy())
//
// See examples/ for runnable scenarios and cmd/sndfig for regenerating the
// paper's figures.
package snd

import (
	"snd/internal/analysis"
	"snd/internal/async"
	"snd/internal/central"
	"snd/internal/cluster"
	"snd/internal/core"
	"snd/internal/crypto"
	"snd/internal/deploy"
	"snd/internal/exp"
	"snd/internal/geometry"
	"snd/internal/georoute"
	"snd/internal/nodeid"
	"snd/internal/radio"
	"snd/internal/replica"
	"snd/internal/sim"
	"snd/internal/topology"
	"snd/internal/trace"
	"snd/internal/verify"
)

// Identity and geometry primitives.
type (
	// NodeID identifies a logical sensor node.
	NodeID = nodeid.ID
	// NodeSet is an immutable set of node IDs: a strictly ascending slice,
	// shared rather than copied. Build one with NewNodeSet; derive new
	// ones with Union, Intersect and Diff.
	NodeSet = nodeid.Set
	// Point is a position in the deployment plane (meters).
	Point = geometry.Point
	// Rect is an axis-aligned region, e.g. the deployment field.
	Rect = geometry.Rect
	// Circle is a disk, used for jamming regions and safety audits.
	Circle = geometry.Circle
)

// NewNodeSet builds a set from the given IDs, in any order; it copies them.
func NewNodeSet(ids ...NodeID) NodeSet { return nodeid.NewSet(ids...) }

// NewField returns the rectangle [0,w] × [0,h].
func NewField(w, h float64) Rect { return geometry.NewField(w, h) }

// Protocol types (the paper's contribution).
type (
	// ProtocolConfig carries the threshold t and update budget m.
	ProtocolConfig = core.Config
	// Node is one node's protocol state machine.
	Node = core.Node
	// BindingRecord is R(u) = {i, N(u), C(u)}.
	BindingRecord = core.BindingRecord
	// RelationCommitment is C(u,v).
	RelationCommitment = core.RelationCommitment
	// RelationEvidence is E(u,v).
	RelationEvidence = core.RelationEvidence
	// SafetyReport audits one compromised node against d-safety.
	SafetyReport = core.SafetyReport
	// MasterKey is the pre-distributed, erasable network key K.
	MasterKey = crypto.MasterKey
)

// NewMasterKey generates the network master key K (crypto/rand when rng is
// nil).
var NewMasterKey = crypto.NewMasterKey

// NewNode initializes a protocol node before deployment.
func NewNode(id NodeID, master *MasterKey, cfg ProtocolConfig) (*Node, error) {
	return core.NewNode(id, master, cfg)
}

// Simulation engine.
type (
	// SimParams configures a simulation (paper defaults: 200 nodes,
	// 100×100 m, R = 50 m).
	SimParams = sim.Params
	// Simulation owns one simulated network.
	Simulation = sim.Simulation
	// Overhead aggregates per-node protocol cost.
	Overhead = sim.Overhead
)

// NewSimulation builds a simulation and runs the initial deployment round.
func NewSimulation(p SimParams) (*Simulation, error) { return sim.New(p) }

// Deployment and verification substrates.
type (
	// Layout is the physical deployment (devices, replicas, deaths).
	Layout = deploy.Layout
	// Device is one physical radio in the field.
	Device = deploy.Device
	// DeviceHandle identifies one physical device within a Layout.
	DeviceHandle = deploy.Handle
	// Sampler draws deployment positions.
	Sampler = deploy.Sampler
	// UniformSampler scatters nodes uniformly (the paper's model).
	UniformSampler = deploy.Uniform
	// GridJitterSampler places nodes on a jittered grid.
	GridJitterSampler = deploy.GridJitter
	// ClusteredSampler drops nodes around a few drop points.
	ClusteredSampler = deploy.Clustered
	// WithinSampler restricts a sampler to a sub-region.
	WithinSampler = deploy.Within
	// Verifier is a direct neighbor verification mechanism.
	Verifier = verify.Verifier
	// OracleVerifier is ideal direct verification.
	OracleVerifier = verify.Oracle
	// RTTVerifier models distance bounding with noise.
	RTTVerifier = verify.RTT
	// RSSVerifier models signal-strength ranging.
	RSSVerifier = verify.RSS
	// Medium is the simulated wireless channel.
	Medium = radio.Medium
)

// NewLayout returns an empty deployment over the given field.
func NewLayout(field Rect) *Layout { return deploy.NewLayout(field) }

// ForEachInRange visits every alive device within radius r of device h
// (excluding h itself) in deployment order. It resolves receivers through
// the layout's uniform-grid spatial index — O(k) in the neighborhood size
// rather than O(n) in the network — and allocates nothing; see
// Layout.EnsureGrid for how the index is built and maintained.
func ForEachInRange(l *Layout, h DeviceHandle, r float64, fn func(*Device)) {
	l.ForEachInRange(h, r, fn)
}

// ForEachAliveIn visits every alive device inside the circle, in
// deployment order, through the same grid index as ForEachInRange.
func ForEachAliveIn(l *Layout, c Circle, fn func(*Device)) {
	l.ForEachAliveIn(c, fn)
}

// Topology model (Section 3).
type (
	// Graph is an immutable directed graph of neighbor relations in CSR
	// form, safe for concurrent readers.
	Graph = topology.Graph
	// GraphBuilder collects vertices and relations; Finalize turns them
	// into a Graph.
	GraphBuilder = topology.Builder
	// ValidationFunc models Definition 3's F(u, v, B).
	ValidationFunc = topology.ValidationFunc
	// CommonNeighborRule is the topology-only threshold rule that
	// Theorems 1–2 prove attackable.
	CommonNeighborRule = topology.CommonNeighborRule
)

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return topology.NewBuilder() }

// TopologyAccuracy returns the fraction of ground-truth relations present
// in a functional topology.
var TopologyAccuracy = topology.Accuracy

// Analysis (Section 4.4.1 closed forms).
type (
	// AnalyticalModel computes N(c), τ and the theoretical accuracy f_b.
	AnalyticalModel = analysis.Model
)

// Pairwise key predistribution schemes (the paper's assumed substrate).
type (
	// PairwiseScheme establishes pairwise keys between nodes.
	PairwiseScheme = crypto.PairwiseScheme
	// EGScheme is Eschenauer–Gligor random key predistribution.
	EGScheme = crypto.EGScheme
	// BlundoScheme is symmetric bivariate polynomial predistribution.
	BlundoScheme = crypto.BlundoScheme
)

// Scheme constructors.
var (
	// NewKDFScheme derives every pairwise key from a network secret.
	NewKDFScheme = crypto.NewKDFScheme
	// NewEGScheme builds an Eschenauer–Gligor pool/ring scheme.
	NewEGScheme = crypto.NewEGScheme
	// NewBlundoScheme samples symmetric polynomials of degree λ.
	NewBlundoScheme = crypto.NewBlundoScheme
	// NewPolyPoolScheme builds a Liu–Ning polynomial pool.
	NewPolyPoolScheme = crypto.NewPolyPoolScheme
)

// Geographic routing (GPSR, the paper's reference [12]).
type (
	// GeoRouter routes greedily with recovery over a neighbor table.
	GeoRouter = georoute.Router
	// RouteResult describes one routing attempt.
	RouteResult = georoute.Result
	// RouteStats aggregates many attempts.
	RouteStats = georoute.Stats
)

// NewGeoRouter builds a router over positions and a neighbor graph.
var NewGeoRouter = georoute.New

// Clustering algorithms from the paper's motivation (refs [1], [2]).
type (
	// ClusterAssignment maps nodes to elected cluster heads.
	ClusterAssignment = cluster.Assignment
)

// Clustering entry points.
var (
	// ElectLowestID runs the classic smallest-ID-in-neighborhood election.
	ElectLowestID = cluster.LowestID
	// MaxMinD runs Amis et al.'s Max–Min d-cluster formation.
	MaxMinD = cluster.MaxMinD
	// ClusterStretch measures the worst member-to-head hop distance of an
	// assignment over a (ground-truth) graph.
	ClusterStretch = cluster.Diameter2Cost
)

// Protocol tracing.
type (
	// TraceEvent is one recorded protocol step.
	TraceEvent = trace.Event
	// TraceKind classifies protocol events.
	TraceKind = trace.Kind
	// TraceRing is a bounded in-memory event recorder; pass it as
	// SimParams.Recorder to observe a run.
	TraceRing = trace.Ring
)

// NewTraceRing builds an event recorder retaining up to capacity events.
var NewTraceRing = trace.NewRing

// Centralized baseline (the Section 4 alternative).
var (
	// DetectSplitNeighborhoods is the base station's topology-only
	// replica detector.
	DetectSplitNeighborhoods = central.DetectSplitNeighborhoods
	// CentralCollectionCost estimates the cost of shipping the topology
	// to a base station.
	CentralCollectionCost = central.CollectionCost
)

// Replica-detection baselines (Parno et al., S&P 2005).
type (
	// ReplicaNetwork is the device-level network the baselines run on.
	ReplicaNetwork = replica.Network
	// ReplicaConfig is (p, g): forward probability and witness count.
	ReplicaConfig = replica.Config
	// ReplicaResult is one detection trial's outcome.
	ReplicaResult = replica.Result
)

// Baseline entry points.
var (
	// BuildReplicaNetwork indexes a layout for the baselines.
	BuildReplicaNetwork = replica.BuildNetwork
	// RandomizedMulticast runs Parno et al.'s first protocol.
	RandomizedMulticast = replica.RandomizedMulticast
	// LineSelectedMulticast runs their cheaper line-crossing variant.
	LineSelectedMulticast = replica.LineSelectedMulticast
)

// Concurrent runtime: one goroutine per node.
type (
	// AsyncConfig parameterizes the concurrent engine.
	AsyncConfig = async.Config
	// AsyncNetwork runs protocol endpoints as goroutines.
	AsyncNetwork = async.Network
)

// DiscoverAll boots a whole layout concurrently — every node a goroutine —
// and returns the resulting functional topology.
var DiscoverAll = async.DiscoverAll

// Experiment runners (one per paper figure/table; see DESIGN.md). Every
// runner takes a context.Context first: cancel it to stop the sweep
// cooperatively (completed trials stay cached; the runner returns
// ctx.Err()).
var (
	// Fig3 reproduces Figure 3 (accuracy vs threshold t).
	Fig3 = exp.Fig3
	// Fig4 reproduces Figure 4 (accuracy vs deployment density).
	Fig4 = exp.Fig4
	// SafetyExperiment audits Theorem 3's 2R bound (E3).
	SafetyExperiment = exp.Safety
	// BreakdownExperiment sweeps the clone-clique attack past t (E4).
	BreakdownExperiment = exp.Breakdown
	// ImpossibilityExperiment demonstrates Theorems 1–2 (E5).
	ImpossibilityExperiment = exp.Impossibility
	// CompareExperiment quantifies the Section 4.5 comparison (E8).
	CompareExperiment = exp.Compare
	// OverheadExperiment measures Section 4.3's overhead (E7).
	OverheadExperiment = exp.OverheadSweep
	// UpdateExperiment studies the update extension and Theorem 4 (E9).
	UpdateExperiment = exp.Update
	// HostileExperiment checks Section 4.4.2's robustness claim (E10).
	HostileExperiment = exp.Hostile
	// RoutingExperiment quantifies the routing blackhole impact (E11).
	RoutingExperiment = exp.Routing
	// IsolationExperiment measures functional-topology partitioning (E12).
	IsolationExperiment = exp.Isolation
	// AggregationExperiment quantifies cluster-aggregation corruption (E14).
	AggregationExperiment = exp.Aggregation
	// VerifierNoiseAblation sweeps direct-verification error.
	VerifierNoiseAblation = exp.VerifierNoise
	// SchemeAblation sweeps key predistribution coverage.
	SchemeAblation = exp.SchemeAblation
	// EnginesAblation cross-checks the two engines.
	EnginesAblation = exp.Engines
)
