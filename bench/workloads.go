package bench

// Workload names. Later changes cite them; do not rename.
const (
	DensePaper  = "dense-paper"
	SparseLarge = "sparse-large"
	AttackSweep = "attack-sweep"
	ServiceJobs = "service-jobs"
)

// Size is the input size of one workload's op. The defaults below are the
// benchmark; the self-test shrinks them.
type Size struct {
	Nodes     int     `json:"nodes"`
	Field     float64 `json:"field_m"`
	Range     float64 `json:"range_m"`
	Threshold int     `json:"threshold"`
	// Trials is the number of trials one op runs: 1 for a trial call, the
	// sweep length for attack-sweep, the job's Trials for service-jobs.
	Trials int `json:"trials_per_op"`
}

// Workload is one named set of inputs.
type Workload struct {
	Name string
	Why  string
	Size Size
}

// Workloads are the benchmark's workloads, in run order. Each stresses
// different layers, and each planned optimisation has one workload that
// exercises it and one that should not move (see README.md).
var Workloads = []Workload{
	{
		Name: DensePaper,
		Why:  "Figure 3 field, 200 nodes, R=50, t=30: ~150 neighbours per node, so record validation, hashing, ID sets and the record codec dominate",
		Size: Size{Nodes: 200, Field: 100, Range: 50, Threshold: 30, Trials: 1},
	},
	{
		Name: SparseLarge,
		Why:  "2000 nodes at 1 per 100 m2, R=25, t=4: ~20 neighbours per node, so per-device fixed costs (radio inboxes, grid, truth graph, GC) dominate",
		Size: Size{Nodes: 2000, Field: 447, Range: 25, Threshold: 4, Trials: 1},
	},
	{
		Name: AttackSweep,
		Why:  "compare (E8) sweeps through the exp registry on runner with nproc workers: the only path through runner sharding, reduce and the replica/central baselines",
		Size: Size{Nodes: 150, Field: 100, Range: 25, Threshold: 4, Trials: 8},
	},
	{
		Name: ServiceJobs,
		Why:  "fresh compare jobs through sndserve from 2 closed-loop clients: the only path through http, admission, the job table, WAL fsync and the file store",
		Size: Size{Nodes: 150, Field: 100, Range: 25, Threshold: 4, Trials: 4},
	},
}

// WorkloadByName finds a workload by name.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
