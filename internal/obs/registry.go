// Package obs is the repository's observability substrate: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms — all with atomic hot paths) that renders in the Prometheus
// text exposition format, plus log/slog helpers for structured per-job and
// per-trial logging.
//
// Registration is get-or-register: asking a Registry for a metric that
// already exists returns the existing one, so independent subsystems can
// share a registry without coordinating construction order. Asking for an
// existing name with a different type, label set, or bucket layout panics —
// that is always a programming error, and silently forking the family would
// corrupt the exposition.
//
// Metric updates (Counter.Add, Gauge.Set, Histogram.Observe) never take a
// lock: they are single atomic operations, safe to call from every worker
// of a hot sweep. Vec lookups (With) take a read lock on the family's
// children map; resolve children once outside a loop when the label value
// is fixed.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types, as they appear on # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefBuckets is the default histogram layout for latency-style metrics:
// 100µs to 10s, roughly logarithmic. Trial functions range from sub-ms
// profile evaluations to multi-second full-protocol simulations.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them as Prometheus text.
// The zero value is unusable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one metric name: its metadata plus every labeled child.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram upper bounds (exclusive of +Inf)

	mu       sync.RWMutex
	children map[string]*child
}

// child is one (label values) instance of a family; exactly one of the
// metric pointers is set, matching the family type.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// register implements get-or-register for every metric constructor.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
	}
	if typ == typeHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		f.buckets = append([]float64(nil), buckets...)
		if !sort.Float64sAreSorted(f.buckets) {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	f.children = make(map[string]*child)
	r.families[name] = f
	return f
}

// childFor returns (creating if needed) the child for the label values.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[key]; ok {
		return c
	}
	c = &child{values: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		c.c = &Counter{}
	case typeGauge:
		c.g = &Gauge{}
	case typeHistogram:
		c.h = newHistogram(f.buckets)
	}
	f.children[key] = c
	return c
}

// Counter returns the unlabeled counter named name, registering it first if
// needed. The sample line exists (at 0) from registration on.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, nil).childFor(nil).c
}

// Gauge returns the unlabeled gauge named name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, nil).childFor(nil).g
}

// Histogram returns the unlabeled histogram named name. A nil buckets slice
// uses DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, typeHistogram, nil, buckets).childFor(nil).h
}

// CounterVec returns the counter family named name partitioned by labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil)}
}

// GaugeVec returns the gauge family named name partitioned by labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, labels, nil)}
}

// HistogramVec returns the histogram family named name partitioned by
// labels. A nil buckets slice uses DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels, buckets)}
}

// OnGather registers a hook run before every exposition, outside the
// registry lock — the place to refresh gauges derived from larger state
// (e.g. a job table) in one pass instead of on every mutation.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, children sorted by label
// values, histogram buckets cumulative and le-ascending.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, hook := range hooks {
		hook()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the exposition over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	f.mu.RLock()
	children := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		children = append(children, c)
	}
	f.mu.RUnlock()
	sort.Slice(children, func(i, j int) bool {
		return strings.Join(children[i].values, "\x00") < strings.Join(children[j].values, "\x00")
	})
	for _, c := range children {
		switch f.typ {
		case typeCounter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, c.values, "", ""), c.c.Value())
		case typeGauge:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, c.values, "", ""), c.g.Value())
		case typeHistogram:
			c.h.write(b, f.name, f.labels, c.values)
		}
	}
}

// labelString renders `{a="x",b="y"}` (plus an optional extra pair, used
// for histogram le labels); empty label sets render as "".
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	// A nil bucket request means "defaults", which an existing family has
	// already expanded; only a conflicting explicit layout is an error.
	if len(a) == 0 || len(b) == 0 {
		return true
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta; negative deltas panic (counters only go up).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("obs: negative counter delta")
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Observe is two atomic
// adds plus one CAS loop for the sum — no locks.
type Histogram struct {
	upper    []float64
	counts   []atomic.Int64 // len(upper)+1; the last slot is the +Inf bucket
	sum      atomicFloat64
	exemplar atomic.Pointer[Exemplar]
}

// Exemplar ties an extreme observation to the trace that produced it, so a
// histogram outlier can be chased down to the exact slow trial. The text
// exposition format (0.0.4) has no exemplar syntax, so exemplars are not
// rendered on /metrics; they surface through the flight recorder
// (/v1/debug/traces) and the programmatic Exemplar accessor.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{
		upper:  upper,
		counts: make([]atomic.Int64, len(upper)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// SearchFloat64s returns the first index with upper[i] >= v — exactly
	// the Prometheus le (≤) bucket the sample belongs to.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveWithExemplar records one sample and, when it is the largest value
// seen so far, retains (v, traceID) as the histogram's exemplar. An empty
// traceID degrades to a plain Observe. The exemplar update is a CAS loop
// off the bucket path, so racing observers keep the true maximum.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	ex := &Exemplar{Value: v, TraceID: traceID}
	for {
		cur := h.exemplar.Load()
		if cur != nil && cur.Value >= v {
			return
		}
		if h.exemplar.CompareAndSwap(cur, ex) {
			return
		}
	}
}

// Exemplar returns the max-value exemplar, if any observation carried one.
func (h *Histogram) Exemplar() (Exemplar, bool) {
	ex := h.exemplar.Load()
	if ex == nil {
		return Exemplar{}, false
	}
	return *ex, true
}

// Count returns the total number of observations. It is derived from the
// per-bucket counts, so it can never disagree with the +Inf bucket.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket holding the rank, the same estimate Prometheus's
// histogram_quantile computes. Returns NaN with no observations; samples
// landing in the +Inf bucket clamp to the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i == len(h.upper) { // +Inf bucket
			return h.upper[len(h.upper)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.upper[i-1]
		}
		hi := h.upper[i]
		if c == 0 {
			return hi
		}
		frac := (rank - (cum - float64(c))) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.upper[len(h.upper)-1]
}

// write emits the bucket/sum/count triplet with cumulative bucket values.
func (h *Histogram) write(b *strings.Builder, name string, labels, values []string) {
	var cum int64
	for i, upper := range h.upper {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelString(labels, values, "le", formatFloat(upper)), cum)
	}
	cum += h.counts[len(h.upper)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelString(labels, values, "le", "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelString(labels, values, "", ""), formatFloat(h.sum.Load()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelString(labels, values, "", ""), cum)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per label name,
// in registration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.childFor(values).c }

// Sum totals every child — the unlabeled view of the family.
func (v *CounterVec) Sum() int64 {
	var total int64
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	for _, c := range v.f.children {
		total += c.c.Value()
	}
	return total
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.childFor(values).g }

// Sum totals every child.
func (v *GaugeVec) Sum() int64 {
	var total int64
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	for _, c := range v.f.children {
		total += c.g.Value()
	}
	return total
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.childFor(values).h }

// Each visits every child with its label values, sorted by label values,
// so iteration order is stable across calls.
func (v *HistogramVec) Each(fn func(labelValues []string, h *Histogram)) {
	v.f.mu.RLock()
	children := make([]*child, 0, len(v.f.children))
	for _, c := range v.f.children {
		children = append(children, c)
	}
	v.f.mu.RUnlock()
	sort.Slice(children, func(i, j int) bool {
		return strings.Join(children[i].values, "\x00") < strings.Join(children[j].values, "\x00")
	})
	for _, c := range children {
		fn(c.values, c.h)
	}
}

// atomicFloat64 is a float64 updated with compare-and-swap on its bits.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat64) Load() float64 { return math.Float64frombits(f.bits.Load()) }
