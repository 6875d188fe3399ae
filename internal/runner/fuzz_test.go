package runner

import (
	"context"
	"encoding/json"
	"testing"
)

// FuzzRunCells checks RunCells against MapCtx over the same spec and a
// pure trial. raw decodes to a cell list, two signed bytes per cell
// (point, trial); flip, when nonzero, mutates one hex digit of the sweep
// ID; workers sizes the pool (1-4). RunCells must never panic, must fail
// exactly when the ID is wrong, a cell lies outside the grid or a cell
// repeats, and must otherwise return one sample per cell in request order,
// byte-equal to the JSON encoding of MapCtx's value for that cell. `go
// test` runs the committed corpus under testdata/fuzz/FuzzRunCells; `go
// test -fuzz=FuzzRunCells` explores further.
func FuzzRunCells(f *testing.F) {
	spec := distSpec()
	id, _, _ := SweepID(spec)
	full, err := mapSweep(New(Options{Workers: 1}), spec, distTrial(42))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0, 1, 2, 3, 1, 0}, uint8(0), uint8(1))
	f.Add([]byte{1, 1, 1, 1}, uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, flip, workers uint8) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		cells := make([]Cell, len(raw)/2)
		for i := range cells {
			cells[i] = Cell{Point: int(int8(raw[2*i])), Trial: int(int8(raw[2*i+1]))}
		}
		sweepID := id
		if flip != 0 {
			b := []byte(id)
			b[int(flip-1)%len(b)] ^= 1
			sweepID = string(b)
		}
		wantErr := sweepID != id
		seen := map[Cell]bool{}
		for _, c := range cells {
			if c.Point < 0 || c.Point >= spec.Points || c.Trial < 0 || c.Trial >= spec.Trials || seen[c] {
				wantErr = true
			}
			seen[c] = true
		}

		eng := New(Options{Workers: 1 + int(workers)%4})
		samples, err := RunCells(context.Background(), eng, spec, sweepID, cells, distTrial(42))
		if (err != nil) != wantErr {
			t.Fatalf("cells %v, id flipped %v: err = %v, want error %v", cells, flip != 0, err, wantErr)
		}
		if err != nil {
			return
		}
		if len(samples) != len(cells) {
			t.Fatalf("%d samples for %d cells", len(samples), len(cells))
		}
		for i, s := range samples {
			want, _ := json.Marshal(full.Points[s.Point][s.Trial])
			if s.Cell != cells[i] || s.Dropped || string(s.Sample) != string(want) {
				t.Fatalf("sample %d = %+v, want cell %v with %s", i, s, cells[i], want)
			}
		}
	})
}
