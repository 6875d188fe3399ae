package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// stopBackend records the sweep it is offered and refuses to run it, so a
// test learns a sweep's identity without executing a single trial.
type stopBackend struct {
	desc runner.SweepDesc
}

func (b *stopBackend) RunSweep(ctx context.Context, desc runner.SweepDesc,
	run func(runner.Cell) bool, deliver func(runner.Cell, []byte) bool) error {
	b.desc = desc
	return errors.New("stop")
}

// TestSweepIDsPinned pins the sweep ID each registered experiment's
// default params hash to. The ID names both the trial-cache lineage and
// the unit a coordinator leases, so a change here orphans every cached
// trial and every in-flight lease; it must be deliberate.
func TestSweepIDsPinned(t *testing.T) {
	t.Parallel()
	want := map[string]string{
		"aggregation":   "3632e59bcc2a37ee0d361a1ba8daaf1460bf990c922bbc0db2d9010d97e5e11a",
		"breakdown":     "692b0f43035f8abaa337e6990715c171f6cad9102c5f7bb089192773d756b7d2",
		"compare":       "fd88f9101f5498798386ef9bd355a1840db3a3e5970ace4d811c833a885dbc98",
		"engines":       "f3f769f939d9b936d9443e90bcf23db344fcf4f441956e23109b662cfc414aa5",
		"fig3":          "85b61d35df9cda210d9dedcccc89a402edf055575f381e1f42df8fb1d3bc3ac3",
		"fig4":          "8348f8fc4e638bbf676dc2e34ec104b9fc8b41044c063d6da83fd914fe6d7276",
		"hostile":       "4ce67a7250d23752e1ab0c774880401814de375c2368c168d6d7828ad54f5afe",
		"impossibility": "353eae3790671c30e44ac977818b652bd9b1ddf7732b947c9cc060f17252a54f",
		"isolation":     "a380ef8af076b5a235d964e4006fd0ad22c8610f669e51c96bfc2c4a1564eab5",
		"noise":         "aa0aee2cfc22bd73b7d39a761e8bc70c90f06f3143c4d9155fb3f7c5d67b0cf4",
		"overhead":      "506967922969b6fa1ddc78f6b4d07ec991b1fa5e8fda2463d1baa2a593f396dc",
		"routing":       "6b6939c2c92a4da7f62919661f8af3171768dcfc5ff1878ebfc3bd58da84cc0b",
		"safety":        "2e4c26dee12fa38d36d2635a65f9406c0384810731ac852de6612febc8ec57c6",
		"scale":         "3b04d846c8c100c1cea49774892990789b092102b4cb871a8756959159029c7c",
		"scheme":        "b5bb70030943583a6c4937002481f2e7230bb14c40cb8e4d85aa9075fb3ca9e0",
		"update":        "f1594c8fdfed8c0466e77052b2ca3abf2cb704d203355b96c22eb35798b89bea",
	}
	for _, e := range All() {
		id, ok := want[e.Name()]
		if !ok {
			t.Errorf("%s: no pinned sweep ID; pin the new experiment's", e.Name())
			continue
		}
		delete(want, e.Name())
		b := &stopBackend{}
		if _, err := e.Run(context.Background(), runner.New(runner.Options{Workers: 1, Backend: b})); err == nil {
			t.Errorf("%s: run past a refusing backend", e.Name())
		}
		if b.desc.ID != id {
			t.Errorf("%s: sweep ID %q, pinned %q", e.Name(), b.desc.ID, id)
		}
	}
	for name := range want {
		t.Errorf("pinned experiment %s is not registered", name)
	}
}
