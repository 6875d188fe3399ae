package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if s.CI95() != 0 {
		t.Errorf("CI95 of empty = %v", s.CI95())
	}
}

func TestSummarizeKnownSample(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// Sample stddev of that classic sample is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s.StdDev, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeSingleValue(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.Mean != 3.5 || s.StdDev != 0 || s.Min != 3.5 || s.Max != 3.5 {
		t.Errorf("single-value summary = %+v", s)
	}
}

func TestSummaryMeanWithinBounds(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Mod(x, 1e9))
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Mean >= s.Min-1e-6 && s.Mean <= s.Max+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean of empty should be NaN")
	}
}

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Append(1, 0.5, 0.01)
	s.Append(2, 0.6, 0.02)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.X[1] != 2 || s.Y[1] != 0.6 || s.Err[1] != 0.02 {
		t.Errorf("point 1 = (%v, %v, %v)", s.X[1], s.Y[1], s.Err[1])
	}
}

func TestTableRender(t *testing.T) {
	a := &Series{Name: "theory"}
	a.Append(10, 0.95, 0)
	a.Append(20, 0.90, 0)
	b := &Series{Name: "sim"}
	b.Append(10, 0.94, 0.01)

	tab := Table{Title: "Fig 3", XLabel: "t", Series: []*Series{a, b}}
	out := tab.Render()

	for _, want := range []string{"Fig 3", "theory", "sim", "0.9500", "0.9400 ±0.0100"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Title + header + 2 data rows; shorter series leaves a blank cell.
	if lines := strings.Split(strings.TrimRight(out, "\n"), "\n"); len(lines) != 4 {
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	a := &Series{Name: "theory"}
	a.Append(10, 0.5, 0)
	a.Append(20, 0.25, 0)
	b := &Series{Name: "sim,with comma"}
	b.Append(10, 0.4, 0.01)
	b.Append(20, 0.2, 0.02)
	tab := Table{Title: "T", XLabel: "t", Series: []*Series{a, b}}
	got := tab.CSV()
	want := "t,theory,\"sim,with comma\",\"sim,with comma_ci95\"\n" +
		"10,0.5,0.4,0.01\n20,0.25,0.2,0.02\n"
	if got != want {
		t.Errorf("CSV =\n%s\nwant\n%s", got, want)
	}
}

func TestCSVEscape(t *testing.T) {
	tests := []struct{ give, want string }{
		{"plain", "plain"},
		{"a,b", "\"a,b\""},
		{"q\"q", "\"q\"\"q\""},
	}
	for _, tt := range tests {
		if got := csvEscape(tt.give); got != tt.want {
			t.Errorf("csvEscape(%q) = %q, want %q", tt.give, got, tt.want)
		}
	}
}
