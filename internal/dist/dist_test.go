package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"snd/internal/exp"
	"snd/internal/runner"
	"snd/internal/store"
)

// The tests register one real experiment into the exp registry: a
// deterministic distributable sweep whose reduce is bit-sensitive (it
// keeps every raw sample), so any divergence between local, loopback, and
// remote execution shows up in a byte comparison of the result.

type dtParams struct {
	Points  int
	Trials  int
	Seed    int64
	SleepMs int
}

type dtResult struct {
	exp.HealthReport
	Sums []float64
	All  [][]float64
}

func (r *dtResult) Render() string { return fmt.Sprintf("dist-test: %v", r.Sums) }

func init() {
	exp.Register("dist-test", "test-only: deterministic distributable sweep",
		func(p dtParams) exp.Sweep[float64, *dtResult] {
			if p.Points == 0 {
				p.Points = 2
			}
			if p.Trials == 0 {
				p.Trials = 2
			}
			return exp.Sweep[float64, *dtResult]{
				Name: "dist-test", Params: p, Points: p.Points, Trials: p.Trials,
				Trial: func(point, trial int) (float64, error) {
					if p.SleepMs > 0 {
						time.Sleep(time.Duration(p.SleepMs) * time.Millisecond)
					}
					return float64(runner.TrialSeed(p.Seed, point, trial)%100000) / 3.0, nil
				},
				Reduce: func(out *runner.Outcome[float64]) (*dtResult, error) {
					res := &dtResult{All: out.Points}
					for _, samples := range out.Points {
						sum := 0.0
						for _, v := range samples {
							sum += v
						}
						res.Sums = append(res.Sums, sum)
					}
					return res, nil
				},
			}
		})
}

// runDistTest executes the dist-test experiment through the registry on
// eng and returns the result's canonical encoding.
func runDistTest(t *testing.T, ctx context.Context, eng *runner.Engine, params string) []byte {
	t.Helper()
	res, err := runDistTestErr(ctx, eng, params)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runDistTestErr(ctx context.Context, eng *runner.Engine, params string) ([]byte, error) {
	e, ok := exp.Lookup("dist-test")
	if !ok {
		return nil, fmt.Errorf("dist-test not registered")
	}
	bound, err := e.Decode(json.RawMessage(params))
	if err != nil {
		return nil, err
	}
	res, err := bound.Run(ctx, eng)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// remoteWorker drives the coordinator's lease protocol the way a fleet
// process would, executing leased batches through the experiment registry
// on its own engine (exp.RunCells — the sndworker execution path).
type remoteWorker struct {
	t     *testing.T
	c     *Coordinator
	id    string
	eng   *runner.Engine
	cells int
}

func newRemoteWorker(t *testing.T, c *Coordinator, name string) *remoteWorker {
	t.Helper()
	resp := c.Register(RegisterRequest{Name: name})
	return &remoteWorker{
		t: t, c: c, id: resp.WorkerID,
		eng: runner.New(runner.Options{Workers: 2, Cache: store.NewMemStore()}),
	}
}

// step leases and completes one batch; it reports whether work was found.
// Failures use Errorf (step runs on fleet goroutines, where Fatal is not
// allowed) and surface as !ok.
func (w *remoteWorker) step() (found, ok bool) {
	lease, err := w.c.Lease(w.id)
	if err != nil {
		w.t.Errorf("lease: %v", err)
		return false, false
	}
	if lease.Batch == nil {
		return false, true
	}
	b := lease.Batch
	results, err := exp.RunCells(context.Background(), w.eng, b.Experiment, b.Params, b.SweepID, b.Cells)
	if err != nil {
		w.t.Errorf("RunCells(%s): %v", b.Experiment, err)
		return true, false
	}
	resp, err := w.c.Report(ResultsRequest{WorkerID: w.id, BatchID: b.ID, Results: results})
	if err != nil {
		w.t.Errorf("report: %v", err)
		return true, false
	}
	w.cells += resp.Accepted
	return true, true
}

// drainWith runs worker steps until done signals, so a test's sweep always
// has a fleet consuming its queue.
func drainWith(w *remoteWorker, done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		default:
		}
		found, ok := w.step()
		if !ok {
			return
		}
		if !found {
			time.Sleep(time.Millisecond)
		}
	}
}

// recorder collects delivered samples from synthetic RunSweep calls.
type recorder struct {
	mu      sync.Mutex
	samples map[runner.Cell]string
	dropped int
}

func newRecorder() *recorder { return &recorder{samples: make(map[runner.Cell]string)} }

func (r *recorder) deliver(c runner.Cell, sample []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sample == nil {
		r.dropped++
		return true
	}
	r.samples[c] = string(sample)
	return true
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// syntheticDesc is a sweep identity for protocol-level tests that drive
// RunSweep directly, without an engine behind it.
func syntheticDesc(points, trials int) runner.SweepDesc {
	return runner.SweepDesc{
		ID:         "sweep-synthetic",
		Experiment: "dist-test",
		Params:     json.RawMessage(`{}`),
		Points:     points,
		Trials:     trials,
	}
}

// sampleFor fabricates a deterministic sample for synthetic tests.
func sampleFor(c runner.Cell) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"p":%d,"t":%d}`, c.Point, c.Trial))
}

func resultsFor(cells []runner.Cell) []runner.CellSample {
	out := make([]runner.CellSample, 0, len(cells))
	for _, c := range cells {
		out = append(out, runner.CellSample{Cell: c, Sample: sampleFor(c)})
	}
	return out
}
