package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON maps a workload configuration (goldenKey) to the digests of
// its first ops' outputs at that seed: per trial, the canonical JSON of
// accuracy, centre accuracy, overhead, radio counters and event counts;
// per attack-sweep op, the reduced result's Render(). Regenerate with
// `go test -run TestGolden -update` in this directory.
//
//go:embed testdata/golden.json
var goldenJSON []byte

var goldens = func() map[string][]string {
	g := map[string][]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("bench: testdata/golden.json: " + err.Error())
	}
	return g
}()

func goldenKey(workload string, sz Size, seed int64) string {
	return fmt.Sprintf("%s n=%d field=%g R=%g t=%d k=%d seed=%d",
		workload, sz.Nodes, sz.Field, sz.Range, sz.Threshold, sz.Trials, seed)
}
