// Package stats provides the small statistical toolkit used by the
// experiment harness: summaries with confidence intervals, named series for
// figure regeneration, and fixed-width table rendering so that cmd/sndfig
// can print the same rows and curves the paper reports.
package stats

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Summary holds the moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// String renders the summary as "mean ± ci95 [min, max] (n)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f [%.4f, %.4f] (n=%d)", s.Mean, s.CI95(), s.Min, s.Max, s.N)
}

// Mean returns the arithmetic mean of xs, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Series is a named sequence of (x, y) points — one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	// Err holds optional per-point 95% CI half-widths, parallel to Y.
	Err []float64
}

// Append adds a point (and optional CI) to the series.
func (s *Series) Append(x, y, ci float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Err = append(s.Err, ci)
}

// Len returns the number of points in the series.
func (s *Series) Len() int { return len(s.X) }

// Table renders one or more series sharing the same X grid as a fixed-width
// text table with the given column headers. Series are matched to X by
// index; shorter series print blanks past their end.
type Table struct {
	Title   string
	XLabel  string
	Series  []*Series
	Comment string
}

// Render formats the table for terminal output.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	if t.Comment != "" {
		fmt.Fprintf(&b, "%s\n", t.Comment)
	}
	// Header.
	fmt.Fprintf(&b, "%12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "  %18s", s.Name)
	}
	b.WriteByte('\n')
	// Rows follow the longest series' X values.
	rows := 0
	for _, s := range t.Series {
		if s.Len() > rows {
			rows = s.Len()
		}
	}
	for i := 0; i < rows; i++ {
		x := math.NaN()
		for _, s := range t.Series {
			if i < s.Len() {
				x = s.X[i]
				break
			}
		}
		fmt.Fprintf(&b, "%12.3f", x)
		for _, s := range t.Series {
			if i >= s.Len() {
				fmt.Fprintf(&b, "  %18s", "")
				continue
			}
			cell := fmt.Sprintf("%.4f", s.Y[i])
			if i < len(s.Err) && s.Err[i] > 0 {
				cell += fmt.Sprintf(" ±%.4f", s.Err[i])
			}
			fmt.Fprintf(&b, "  %18s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values for plotting tools: a
// header row with the x label and one column per series (plus a _ci column
// where a series carries confidence intervals), then one row per x value.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(t.XLabel))
	for _, s := range t.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
		if hasCI(s) {
			b.WriteByte(',')
			b.WriteString(csvEscape(s.Name + "_ci95"))
		}
	}
	b.WriteByte('\n')
	rows := 0
	for _, s := range t.Series {
		if s.Len() > rows {
			rows = s.Len()
		}
	}
	for i := 0; i < rows; i++ {
		x := math.NaN()
		for _, s := range t.Series {
			if i < s.Len() {
				x = s.X[i]
				break
			}
		}
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		for _, s := range t.Series {
			b.WriteByte(',')
			if i < s.Len() {
				b.WriteString(strconv.FormatFloat(s.Y[i], 'g', -1, 64))
			}
			if hasCI(s) {
				b.WriteByte(',')
				if i < len(s.Err) {
					b.WriteString(strconv.FormatFloat(s.Err[i], 'g', -1, 64))
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func hasCI(s *Series) bool {
	for _, e := range s.Err {
		if e > 0 {
			return true
		}
	}
	return false
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
