package main

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to parse, which reads the `go test
// -bench` output CI pipes in. Nothing may panic. When parse succeeds,
// every key of the snapshot must name a "Benchmark…" line of the input
// (its first field, less the prefix and any -GOMAXPROCS suffix); each
// entry's Samples must count that key's result lines; and each of its
// measurements must be the minimum over those lines. `go test` runs the
// committed corpus under testdata/fuzz/FuzzParse; `go test -fuzz=FuzzParse`
// explores further.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		snap, err := parse(strings.NewReader(input))
		if err != nil {
			return
		}
		// Every result line of the input, grouped by key.
		results := map[string][]Sample{}
		var firstFields []string
		for _, line := range strings.Split(input, "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "Benchmark") {
				continue
			}
			firstFields = append(firstFields, strings.Fields(line)[0])
			if name, _, s, err := parseResult(line); err == nil && name != "" {
				results[name] = append(results[name], s)
			}
		}
		for key, got := range snap.Benchmarks {
			if !namesLine(key, firstFields) {
				t.Fatalf("key %q names no Benchmark line of %q", key, input)
			}
			lines := results[key]
			if got.Samples != len(lines) {
				t.Fatalf("%s: Samples = %d, but %d result lines in %q", key, got.Samples, len(lines), input)
			}
			for _, s := range lines {
				if s.NsPerOp < got.NsPerOp || less(s.BytesPerOp, got.BytesPerOp) || less(s.AllocsPerOp, got.AllocsPerOp) {
					t.Fatalf("%s: aggregate %+v is not the minimum; a line has %+v", key, got, s)
				}
			}
		}
		if len(snap.Benchmarks) != len(results) {
			t.Fatalf("snapshot has %d keys, input %d result keys: %q", len(snap.Benchmarks), len(results), input)
		}
	})
}

// namesLine reports whether key is one of the first fields with the
// "Benchmark" prefix and an optional -GOMAXPROCS suffix removed.
func namesLine(key string, firstFields []string) bool {
	for _, f := range firstFields {
		rest, ok := strings.CutPrefix(f, "Benchmark"+key)
		if !ok {
			continue
		}
		if rest == "" {
			return true
		}
		if procs, ok := strings.CutPrefix(rest, "-"); ok {
			if _, err := strconv.Atoi(procs); err == nil {
				return true
			}
		}
	}
	return false
}

// less reports whether an optional line count undercuts the aggregate's,
// or the line reports a count the aggregate lost.
func less(line, agg *int64) bool {
	return line != nil && (agg == nil || *line < *agg)
}
