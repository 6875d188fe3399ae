package sim

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"snd/internal/core"
	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
)

// arenaTrial runs one full attack scenario — initial round, compromise,
// replica, forge flood, second deployment round — and returns a complete
// fingerprint of the resulting protocol state. It exercises every arena
// table: endpoints, transceivers, link cache, and the per-round
// hello/update scratch.
func arenaTrial(t *testing.T, seed int64) string {
	t.Helper()
	s, err := New(Params{Seed: seed, Threshold: 5, Nodes: 120})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	victim := s.Layout().ClosestToCenter().Node
	if err := s.Compromise(victim); err != nil {
		t.Fatal(err)
	}
	rep, err := s.PlantReplica(victim, geometry.Point{X: 15, Y: 15})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ForgeFlood(rep.Handle, 50); err != nil {
		t.Fatal(err)
	}
	if err := s.DeployRound(30); err != nil {
		t.Fatal(err)
	}
	return fingerprintSim(s)
}

// fingerprintSim serializes every observable outcome of a simulation in a
// deterministic order: the full functional topology, the accuracy metric,
// the overhead report, and the error counters. Two runs are "bit
// identical" for the differential tests exactly when these strings match.
func fingerprintSim(s *Simulation) string {
	var b strings.Builder
	g := s.FunctionalGraph()
	nodes := g.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, u := range nodes {
		fmt.Fprintf(&b, "%d:%v\n", u, []nodeid.ID(g.Out(u)))
	}
	fmt.Fprintf(&b, "accuracy=%.15f\n", s.Accuracy())
	fmt.Fprintf(&b, "overhead=%+v\n", s.Overhead())
	fmt.Fprintf(&b, "errors=%d channel=%d round=%d\n",
		s.ProtocolErrors(), s.ChannelFailures(), s.Round())
	return b.String()
}

// TestArenaPoolSerialVsParallel pins the arena-pool ownership rule: trials
// running concurrently on recycled arenas must produce results
// bit-identical to the same trials run one at a time. Under -race this
// doubles as the aliasing check — any arena state escaping a Close, or a
// pooled slice shared between two live simulations, trips the detector or
// diverges a fingerprint.
func TestArenaPoolSerialVsParallel(t *testing.T) {
	const trials = 6
	// Serial pass first: each Close returns the arena to the pool, so
	// later trials run on recycled arenas — exercising release/reuse.
	serial := make([]string, trials)
	for i := range serial {
		serial[i] = arenaTrial(t, int64(1000+i))
	}
	// Parallel pass: the same trials race over the shared pool.
	parallel := make([]string, trials)
	var wg sync.WaitGroup
	for i := range parallel {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parallel[i] = arenaTrial(t, int64(1000+i))
		}(i)
	}
	wg.Wait()
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("trial %d: parallel run diverged from serial run\nserial:\n%s\nparallel:\n%s",
				i, serial[i], parallel[i])
		}
	}
}

// TestArenaRecycledMatchesFresh pins that an arena recycled through the
// pool carries no state into its next trial: a simulation run on a
// recycled arena is bit-identical to the same seed run before any arena
// existed.
func TestArenaRecycledMatchesFresh(t *testing.T) {
	fresh := arenaTrial(t, 77)
	// Churn the pool with different-seed trials so a recycled arena (with
	// grown tables and stale capacity) is what the final run draws.
	for i := int64(0); i < 3; i++ {
		_ = arenaTrial(t, 200+i)
	}
	if again := arenaTrial(t, 77); again != fresh {
		t.Errorf("recycled arena diverged from fresh run\nfresh:\n%s\nrecycled:\n%s", fresh, again)
	}
}

// TestCachedRecordFramesNeverStale runs rounds in which records are
// reissued by updates (MaxUpdates: 2), devices die, and a replica runs the
// captured state, and checks after each round that every cached record
// frame is exactly the encoding of its device's current record.
func TestCachedRecordFramesNeverStale(t *testing.T) {
	s, err := New(Params{Seed: 91, Threshold: 3, Nodes: 120, MaxUpdates: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	victim := s.Layout().ClosestToCenter().Node
	if err := s.Compromise(victim); err != nil {
		t.Fatal(err)
	}
	rep, err := s.PlantReplica(victim, geometry.Point{X: 20, Y: 20})
	if err != nil {
		t.Fatal(err)
	}
	cachedAt := map[uint32]int{}
	replicaCached := false
	for round := 1; round <= 4; round++ {
		s.KillFraction(0.05)
		if err := s.DeployRound(25); err != nil {
			t.Fatal(err)
		}
		for i, f := range s.a.frames {
			if f.frame == nil {
				continue
			}
			h := deploy.Handle(i + 1)
			rec := s.a.endpoint(h).Record()
			want, err := core.Envelope{Type: core.MsgRecord, Record: rec}.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(f.frame, want) {
				t.Fatalf("round %d: device %d caches a frame of %v v%d, record is v%d",
					round, h, f.node, f.version, rec.Version)
			}
			cachedAt[rec.Version]++
			replicaCached = replicaCached || h == rep.Handle
		}
	}
	if cachedAt[1] == 0 || cachedAt[2] == 0 || !replicaCached {
		t.Errorf("scenario too tame: cached frames by version %v, replica cached %v", cachedAt, replicaCached)
	}
}
