package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Compare reads the result files (-o output) in dirA, the parent, and
// dirB, the change, and prints one row per (workload, metric) with each
// side's median and quartiles and a verdict. Metrics are never combined
// into one score. Runs pair up in file-name order.
func Compare(w io.Writer, dirA, dirB string) error {
	a, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	keys := make([]rowKey, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-13s %-28s %-6s %12s %12s %12s   %12s %12s %12s  %s\n",
		"workload", "metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "verdict")
	for _, k := range keys {
		xa, xb := a[k], b[k]
		m, _ := metricByName(k.metric)
		a1, a3 := quartiles(xa.values)
		b1, b3 := quartiles(xb.values)
		fmt.Fprintf(w, "%-13s %-28s %-6s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  %s\n",
			k.workload, k.metric, xa.unit, a1, median(xa.values), a3, b1, median(xb.values), b3,
			verdict(m, xa.values, xb.values))
	}
	return nil
}

type rowKey struct{ workload, metric string }

type series struct {
	unit   string
	values []float64
}

// loadRuns collects every metric and extra of every result file in dir.
func loadRuns(dir string) (map[rowKey]*series, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files (*.json) in %s", dir)
	}
	sort.Strings(paths)
	out := map[rowKey]*series{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f File
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Workloads {
			for _, vs := range []map[string]Value{r.Metrics, r.Extras} {
				for name, v := range vs {
					k := rowKey{r.Workload, name}
					if out[k] == nil {
						out[k] = &series{unit: v.Unit}
					}
					out[k].values = append(out[k].values, v.Value)
				}
			}
		}
	}
	return out, nil
}

// verdict applies the paired-run rule to one row, B against the parent A:
//
//   - "gain" when B wins at least 9 in 10 pairs (ties count for neither)
//     and the medians differ, in B's favour, by more than A's interquartile
//     range;
//   - "regression" when B's median is worse than A's by more than the
//     metric's bound;
//   - "unresolved" when either side's spread exceeds the bound, unless
//     every B run beats every A run;
//   - "ok" otherwise.
//
// Per-layer metrics have no bound and read "gain", "loss" (the gain rule
// in A's favour) or "-". Workload-specific extras declare no direction:
// for them "gain" reads "higher" and "loss" reads "lower".
func verdict(m Metric, a, b []float64) string {
	sign := 1.0 // positive diff = B better
	if m.Better == "lower" {
		sign = -1
	}
	if m.Better == "" {
		switch v := verdict(Metric{Better: "higher"}, a, b); v {
		case "gain":
			return "higher"
		case "loss":
			return "lower"
		default:
			return v
		}
	}
	ma, mb := median(a), median(b)
	a1, a3 := quartiles(a)
	diff := sign * (mb - ma)
	n := min(len(a), len(b))
	wins, losses := 0, 0
	for i := range n {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	switch {
	case n > 0 && 10*wins >= 9*n && diff > a3-a1:
		return "gain"
	case m.Bound == 0 && n > 0 && 10*losses >= 9*n && -diff > a3-a1:
		return "loss"
	case m.Bound == 0:
		return "-"
	case -diff > m.Bound*math.Abs(ma):
		return "regression"
	case (spread(a) > m.Bound || spread(b) > m.Bound) && !allBetter(sign, a, b):
		return "unresolved"
	}
	return "ok"
}

// allBetter reports whether every run of b beats every run of a.
func allBetter(sign float64, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}
