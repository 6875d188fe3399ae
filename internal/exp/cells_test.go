package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"snd/internal/runner"
	"snd/internal/store"
)

// captureBackend records the sweep it is offered and executes it locally,
// so a test can learn the exact SweepDesc a coordinator would lease out.
type captureBackend struct {
	desc runner.SweepDesc
}

func (b *captureBackend) RunSweep(ctx context.Context, desc runner.SweepDesc,
	run func(runner.Cell) bool, deliver func(runner.Cell, []byte) bool) error {
	b.desc = desc
	for p := 0; p < desc.Points; p++ {
		for t := 0; t < desc.Trials; t++ {
			if !run(runner.Cell{Point: p, Trial: t}) {
				return nil
			}
		}
	}
	return nil
}

// replayBackend delivers pre-computed samples instead of executing
// anything — the coordinator's view of a sweep completed entirely by
// remote workers.
type replayBackend struct {
	samples map[runner.Cell]json.RawMessage
}

func (b *replayBackend) RunSweep(ctx context.Context, desc runner.SweepDesc,
	run func(runner.Cell) bool, deliver func(runner.Cell, []byte) bool) error {
	for p := 0; p < desc.Points; p++ {
		for t := 0; t < desc.Trials; t++ {
			c := runner.Cell{Point: p, Trial: t}
			deliver(c, b.samples[c])
		}
	}
	return nil
}

func runFig3JSON(t *testing.T, eng *runner.Engine) []byte {
	t.Helper()
	e, _ := Lookup("fig3")
	bound, err := e.Decode(json.RawMessage(`{"Trials":4,"Seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := bound.Run(context.Background(), eng)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// The full distributed round trip over a real paper experiment: capture
// the sweep a coordinator would lease, execute its cells in a separate
// "process" (fresh engine) via RunCells, feed the samples back through the
// deliver path, and demand the final result be byte-identical to a plain
// local run.
func TestRunCellsRoundTripBitIdentical(t *testing.T) {
	t.Parallel()
	local := runFig3JSON(t, runner.New(runner.Options{Workers: 2}))

	capture := &captureBackend{}
	viaRun := runFig3JSON(t, runner.New(runner.Options{Workers: 2, Backend: capture}))
	if !bytes.Equal(viaRun, local) {
		t.Fatalf("backend run path diverges from local:\n%s\nvs\n%s", viaRun, local)
	}
	desc := capture.desc
	if desc.ID == "" || desc.Experiment != "fig3" {
		t.Fatalf("captured desc %+v, want a fig3 sweep", desc)
	}

	// Worker side: same lease, fresh engine, registry-derived trials.
	var cells []runner.Cell
	for p := 0; p < desc.Points; p++ {
		for tr := 0; tr < desc.Trials; tr++ {
			cells = append(cells, runner.Cell{Point: p, Trial: tr})
		}
	}
	weng := runner.New(runner.Options{Workers: 2, Cache: store.NewMemStore()})
	samples, err := RunCells(context.Background(), weng, desc.Experiment, desc.Params, desc.ID, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(cells) {
		t.Fatalf("%d samples for %d cells", len(samples), len(cells))
	}
	byCell := make(map[runner.Cell]json.RawMessage, len(samples))
	for _, s := range samples {
		if s.Dropped {
			t.Fatalf("cell %v dropped", s.Cell)
		}
		byCell[s.Cell] = s.Sample
	}

	// Coordinator side: a run fed purely by the worker's samples.
	replayed := runFig3JSON(t, runner.New(runner.Options{Workers: 2, Backend: &replayBackend{samples: byCell}}))
	if !bytes.Equal(replayed, local) {
		t.Fatalf("remotely computed result diverges from local:\n%s\nvs\n%s", replayed, local)
	}
}

// Re-running the same cells in another process must reproduce the exact
// sample bytes — the property every failover path leans on.
func TestRunCellsDeterministicAcrossEngines(t *testing.T) {
	t.Parallel()
	capture := &captureBackend{}
	runFig3JSON(t, runner.New(runner.Options{Workers: 2, Backend: capture}))
	desc := capture.desc
	cells := []runner.Cell{
		{Point: 0, Trial: 0},
		{Point: desc.Points - 1, Trial: desc.Trials - 1},
		{Point: 0, Trial: 1},
	}

	a, err := RunCells(context.Background(), runner.New(runner.Options{Workers: 2}), desc.Experiment, desc.Params, desc.ID, cells)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCells(context.Background(), runner.New(runner.Options{Workers: 1}), desc.Experiment, desc.Params, desc.ID, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Cell != b[i].Cell || !bytes.Equal(a[i].Sample, b[i].Sample) {
			t.Fatalf("cell %v samples differ across engines:\n%s\nvs\n%s", a[i].Cell, a[i].Sample, b[i].Sample)
		}
	}
}

// Typed failures: unknown experiments, undecodable params, and a sweep
// identity mismatch must all refuse loudly.
func TestRunCellsRejectsBadLeases(t *testing.T) {
	t.Parallel()
	eng := runner.New(runner.Options{Workers: 1})
	cells := []runner.Cell{{Point: 0, Trial: 0}}

	if _, err := RunCells(context.Background(), eng, "nope", nil, "x", cells); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment: err = %v", err)
	}
	if _, err := RunCells(context.Background(), eng, "fig3", json.RawMessage(`{"Bogus":1}`), "x", cells); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := RunCells(context.Background(), eng, "fig3", json.RawMessage(`{"Trials":4,"Seed":7}`), "not-the-sweep", cells); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("sweep mismatch: err = %v", err)
	}
}
