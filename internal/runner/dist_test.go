package runner

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"snd/internal/store"
)

type distSample struct {
	P int     `json:"p"`
	T int     `json:"t"`
	V float64 `json:"v"`
}

func distTrial(seed int64) TrialFunc[distSample] {
	return func(p, t int) (distSample, error) {
		return distSample{P: p, T: t, V: float64(TrialSeed(seed, p, t)%1000) / 7}, nil
	}
}

func distSpec() Spec {
	return Spec{
		Experiment: "dist-grid",
		Params:     struct{ Seed int64 }{42},
		Points:     3,
		Trials:     4,
	}
}

// SweepID must be the hex form of the trial cache's key base: one hash
// names both the schedulable unit and its cache lineage, so coordinator
// and workers share cached trials by construction.
func TestSweepIDMatchesCacheKeyBase(t *testing.T) {
	spec := distSpec()
	id, params, ok := SweepID(spec)
	if !ok {
		t.Fatal("SweepID not ok for encodable params")
	}
	base := cacheKeyBase(store.NewMemStore(), spec)
	if got := hex.EncodeToString(base); got != id {
		t.Fatalf("SweepID %s != cache key base %s", id, got)
	}
	var decoded struct{ Seed int64 }
	if err := json.Unmarshal(params, &decoded); err != nil || decoded.Seed != 42 {
		t.Fatalf("canonical params %s do not round-trip (err %v)", params, err)
	}

	if _, _, ok := SweepID(Spec{Experiment: "x", Params: make(chan int)}); ok {
		t.Fatal("SweepID ok for unencodable params")
	}
}

// recordingBackend captures the sweep it is offered and executes every cell
// through the run callback (full local fidelity).
type recordingBackend struct {
	desc  SweepDesc
	calls atomic.Int64
}

func (b *recordingBackend) RunSweep(ctx context.Context, desc SweepDesc,
	run func(Cell) bool, deliver func(Cell, []byte) bool) error {
	b.desc = desc
	b.calls.Add(1)
	for p := 0; p < desc.Points; p++ {
		for t := 0; t < desc.Trials; t++ {
			if !run(Cell{Point: p, Trial: t}) {
				return nil
			}
		}
	}
	return nil
}

// A sweep under a job-experiment tag goes to the backend; the outcome must
// be indistinguishable from local execution.
func TestBackendRunPathMatchesLocal(t *testing.T) {
	spec := distSpec()
	local, err := Map(New(Options{Workers: 2}), spec, distTrial(42))
	if err != nil {
		t.Fatal(err)
	}

	b := &recordingBackend{}
	eng := New(Options{Workers: 2, Backend: b})
	got, err := MapCtx(WithJobExperiment(context.Background(), "dist-exp"), eng, spec, distTrial(42))
	if err != nil {
		t.Fatal(err)
	}
	if b.calls.Load() != 1 {
		t.Fatalf("backend invoked %d times, want 1", b.calls.Load())
	}
	if !reflect.DeepEqual(got.Points, local.Points) {
		t.Fatalf("backend outcome diverges from local:\n%v\nvs\n%v", got.Points, local.Points)
	}
	wantID, _, _ := SweepID(spec)
	if b.desc.ID != wantID || b.desc.Experiment != "dist-exp" ||
		b.desc.Points != spec.Points || b.desc.Trials != spec.Trials {
		t.Fatalf("backend saw desc %+v, want id=%s experiment=dist-exp 3x4", b.desc, wantID)
	}
}

// Without the registry-name tag a sweep cannot be re-derived remotely, so
// the engine must keep it off the backend and run it locally.
func TestUntaggedSweepStaysLocal(t *testing.T) {
	b := &recordingBackend{}
	eng := New(Options{Workers: 2, Backend: b})
	out, err := Map(eng, distSpec(), distTrial(42))
	if err != nil {
		t.Fatal(err)
	}
	if b.calls.Load() != 0 {
		t.Fatal("untagged sweep was offered to the backend")
	}
	if got := len(out.Points[0]) + len(out.Points[1]) + len(out.Points[2]); got != 12 {
		t.Fatalf("local fallback produced %d samples, want 12", got)
	}
}

// deliveringBackend computes every cell out-of-process (re-deriving the
// trial function itself) and hands back canonical JSON samples, like a
// worker fleet would.
type deliveringBackend struct {
	fn      TrialFunc[distSample]
	dropAt  *Cell // deliver nil (remote drop) for this cell
	mangled *Cell // deliver garbage for this cell, then a good sample via run
}

func (b *deliveringBackend) RunSweep(ctx context.Context, desc SweepDesc,
	run func(Cell) bool, deliver func(Cell, []byte) bool) error {
	for p := 0; p < desc.Points; p++ {
		for t := 0; t < desc.Trials; t++ {
			c := Cell{Point: p, Trial: t}
			if b.dropAt != nil && *b.dropAt == c {
				deliver(c, nil)
				continue
			}
			if b.mangled != nil && *b.mangled == c {
				if deliver(c, []byte("{not json")) {
					return errors.New("mangled sample was accepted")
				}
				// Still owed: run it locally instead.
				run(c)
				continue
			}
			v, err := b.fn(p, t)
			if err != nil {
				return err
			}
			enc, err := json.Marshal(v)
			if err != nil {
				return err
			}
			if !deliver(c, enc) {
				return fmt.Errorf("cell %v: good sample rejected", c)
			}
		}
	}
	return nil
}

// Remotely delivered samples must land bit-identically to local execution,
// a remote drop must count as a failed trial, and an undecodable sample
// must be re-run rather than lost.
func TestBackendDeliverPathMatchesLocal(t *testing.T) {
	spec := distSpec()
	local, err := Map(New(Options{Workers: 2}), spec, distTrial(42))
	if err != nil {
		t.Fatal(err)
	}

	drop := Cell{Point: 1, Trial: 2}
	mangle := Cell{Point: 2, Trial: 0}
	b := &deliveringBackend{fn: distTrial(42), dropAt: &drop, mangled: &mangle}
	eng := New(Options{Workers: 2, Backend: b})
	got, err := MapCtx(WithJobExperiment(context.Background(), "dist-exp"), eng, spec, distTrial(42))
	if err != nil {
		t.Fatal(err)
	}
	if got.Failed != 1 || got.Dropped[1] != 1 {
		t.Fatalf("remote drop not accounted: Failed=%d Dropped=%v", got.Failed, got.Dropped)
	}
	// Point 1 lost its dropped trial; every other sample matches local
	// execution exactly.
	wantP1 := []distSample{local.Points[1][0], local.Points[1][1], local.Points[1][3]}
	if !reflect.DeepEqual(got.Points[0], local.Points[0]) ||
		!reflect.DeepEqual(got.Points[1], wantP1) ||
		!reflect.DeepEqual(got.Points[2], local.Points[2]) {
		t.Fatalf("delivered outcome diverges from local:\n%v\nvs\n%v", got.Points, local.Points)
	}
}

// Delivered samples must populate the trial cache so a re-run is free.
func TestBackendDeliverFillsCache(t *testing.T) {
	spec := distSpec()
	cache := store.NewMemStore()
	b := &deliveringBackend{fn: distTrial(42)}
	eng := New(Options{Workers: 2, Backend: b, Cache: cache})
	ctx := WithJobExperiment(context.Background(), "dist-exp")
	if _, err := MapCtx(ctx, eng, spec, distTrial(42)); err != nil {
		t.Fatal(err)
	}

	// Same spec on a local engine sharing the cache: everything is a hit.
	eng2 := New(Options{Workers: 2, Cache: cache})
	out, err := MapCtx(ctx, eng2, spec, func(p, tr int) (distSample, error) {
		t.Errorf("cell (%d,%d) recomputed despite remote-filled cache", p, tr)
		return distSample{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached != 12 {
		t.Fatalf("Cached = %d, want 12", out.Cached)
	}
}

// RunCells runs exactly the requested cells of the matching sweep;
// samples are the trials' canonical encodings, in request order.
func TestRunCellsRunsExactlyRequestedCells(t *testing.T) {
	spec := distSpec()
	id, _, _ := SweepID(spec)
	cells := []Cell{{0, 1}, {2, 3}, {1, 0}}

	var executed atomic.Int64
	fn := func(p, tr int) (distSample, error) {
		executed.Add(1)
		return distTrial(42)(p, tr)
	}
	eng := New(Options{Workers: 2})
	samples, err := RunCells(context.Background(), eng, spec, id, cells, fn)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != int64(len(cells)) {
		t.Fatalf("executed %d cells, want %d", executed.Load(), len(cells))
	}
	if len(samples) != len(cells) {
		t.Fatalf("%d samples, want %d", len(samples), len(cells))
	}
	for i, s := range samples {
		if s.Cell != cells[i] {
			t.Fatalf("sample %d is for %v, want %v (request order)", i, s.Cell, cells[i])
		}
		want, _ := distTrial(42)(s.Point, s.Trial)
		enc, _ := json.Marshal(want)
		if string(s.Sample) != string(enc) {
			t.Fatalf("cell %v sample %s, want %s", s.Cell, s.Sample, enc)
		}
	}
}

// A lease aimed at a different sweep must fail loudly, not silently run
// the wrong trials.
func TestRunCellsSweepIDMismatch(t *testing.T) {
	_, err := RunCells(context.Background(), New(Options{Workers: 1}), distSpec(), "deadbeef", []Cell{{0, 0}}, distTrial(42))
	if err == nil {
		t.Fatal("err = nil, want sweep-identity mismatch")
	}
}

// Out-of-range cells are a protocol violation, not a panic.
func TestRunCellsRejectsOutOfRangeCells(t *testing.T) {
	spec := distSpec()
	id, _, _ := SweepID(spec)
	_, err := RunCells(context.Background(), New(Options{Workers: 1}), spec, id, []Cell{{5, 0}}, distTrial(42))
	if err == nil {
		t.Fatal("err = nil, want out-of-range error")
	}
}

// A lease naming one cell twice would hand it to two workers writing the
// same slot; it must be refused before any trial runs.
func TestRunCellsRejectsRepeatedCell(t *testing.T) {
	spec := distSpec()
	id, _, _ := SweepID(spec)
	var executed atomic.Int64
	fn := func(p, tr int) (distSample, error) {
		executed.Add(1)
		return distTrial(42)(p, tr)
	}
	cells := []Cell{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	samples, err := RunCells(context.Background(), New(Options{Workers: 4}), spec, id, cells, fn)
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v, want a repeated-cell error", err)
	}
	if samples != nil || executed.Load() != 0 {
		t.Fatalf("repeated-cell lease returned %d samples after %d trials, want none", len(samples), executed.Load())
	}
}
