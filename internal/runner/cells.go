package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"snd/internal/obs/trace"
)

// CellSample is one executed cell of a lease: its grid position and the
// trial's canonical JSON encoding, or Dropped for a cell that panicked
// past the retry budget (a deterministic panic drops the cell on every
// host, so it is reported as completed-without-sample rather than retried
// forever).
type CellSample struct {
	Cell
	Sample  json.RawMessage `json:"sample,omitempty"`
	Dropped bool            `json:"dropped,omitempty"`
}

// RunCells executes exactly the given cells of the sweep spec describes —
// the worker half of distributed execution — on e's pool (nil uses
// Default()), with the cache consulted and filled, panic retries and
// metrics as in MapCtx. The samples come back in the order requested.
//
// The lease is checked before anything runs. sweepID must be spec's
// SweepID: a mismatch means this process derived different parameters
// than the coordinator hashed, and any sample it produced could silently
// diverge. Every cell must lie inside the grid, and no cell may repeat (two
// goroutines would write one slot). A cancellation abandons the batch with
// ctx.Err(): the lease goes unreported and the coordinator re-queues it,
// so no cell is half delivered.
func RunCells[T any](ctx context.Context, e *Engine, spec Spec, sweepID string, cells []Cell, fn TrialFunc[T]) (_ []CellSample, retErr error) {
	id, _, ok := SweepID(spec)
	if !ok {
		return nil, fmt.Errorf("runner: cells of %s: params do not encode", spec.Experiment)
	}
	if id != sweepID {
		return nil, fmt.Errorf("runner: sweep mismatch: %s hashes to %s, lease targets %s",
			spec.Experiment, id, sweepID)
	}
	seen := make(map[Cell]bool, len(cells))
	for _, c := range cells {
		if c.Point < 0 || c.Point >= spec.Points || c.Trial < 0 || c.Trial >= spec.Trials {
			return nil, fmt.Errorf("runner: cell (%d,%d) outside %dx%d grid",
				c.Point, c.Trial, spec.Points, spec.Trials)
		}
		if seen[c] {
			return nil, fmt.Errorf("runner: cell (%d,%d) leased twice", c.Point, c.Trial)
		}
		seen[c] = true
	}
	sw, err := newSweep[T](e, spec, nil)
	if err != nil {
		return nil, err
	}

	// On a worker the context's current span is the batch span, so the
	// trial spans land in the same trace the coordinator's sweep started.
	_, span := trace.Start(ctx, "runner.cells")
	span.SetAttr("experiment", spec.Experiment)
	span.SetAttr("sweep_id", sweepID)
	span.SetAttr("cells", strconv.Itoa(len(cells)))
	defer func() {
		span.SetError(retErr)
		span.End()
	}()
	sw.initTracing(span)

	sw.execute(ctx, fn, len(cells), func(i int) Cell { return cells[i] })
	if sw.cancelled.Load() {
		return nil, ctx.Err()
	}
	for _, c := range cells {
		if err := sw.at(c.Point, c.Trial).err; err != nil {
			return nil, err
		}
	}
	// Synthesize point spans (and end the cells span) now, so the batch's
	// whole span subtree is recorded before the worker ships it with the
	// results post. The deferred End is then an idempotent no-op.
	sw.finishTracing()

	// Re-marshaling the decoded sample is canonical: trial samples
	// round-trip through encoding/json by the TrialFunc contract, so these
	// bytes match what any other host encodes for the same cell.
	out := make([]CellSample, len(cells))
	for i, c := range cells {
		out[i].Cell = c
		slot := sw.at(c.Point, c.Trial)
		if !slot.ok {
			out[i].Dropped = true
			continue
		}
		data, err := json.Marshal(slot.val)
		if err != nil {
			return nil, fmt.Errorf("runner: cell (%d,%d): encode: %v", c.Point, c.Trial, err)
		}
		out[i].Sample = data
	}
	return out, nil
}
