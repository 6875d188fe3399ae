package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("snd_things_total", "Things counted.").Add(3)
	r.Gauge("snd_level", "Current level.").Set(-2)
	v := r.CounterVec("snd_events_total", "Events by kind.", "kind")
	v.With("hello").Add(5)
	v.With("reject").Inc()
	h := r.HistogramVec("snd_op_seconds", "Op latency.", []float64{0.1, 1}, "op")
	h.With("run").Observe(0.05)
	h.With("run").Observe(0.5)
	h.With("run").Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# HELP snd_things_total Things counted.",
		"# TYPE snd_things_total counter",
		"snd_things_total 3",
		"# TYPE snd_level gauge",
		"snd_level -2",
		`snd_events_total{kind="hello"} 5`,
		`snd_events_total{kind="reject"} 1`,
		"# TYPE snd_op_seconds histogram",
		`snd_op_seconds_bucket{op="run",le="0.1"} 1`,
		`snd_op_seconds_bucket{op="run",le="1"} 2`,
		`snd_op_seconds_bucket{op="run",le="+Inf"} 3`,
		`snd_op_seconds_sum{op="run"} 5.55`,
		`snd_op_seconds_count{op="run"} 3`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	// Stable output: a second render is byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Error("exposition is not stable across renders")
	}

	// The registry's own output must pass its own linter.
	if errs := Lint(strings.NewReader(text)); len(errs) != 0 {
		t.Errorf("self-lint failed: %v", errs)
	}
}

func TestGetOrRegister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("snd_x_total", "X.")
	b := r.Counter("snd_x_total", "X.")
	if a != b {
		t.Error("re-registering the same counter returned a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("snd_x_total", "X as gauge.")
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	// 100 samples uniform in (0,1], 100 in (1,2].
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	if q := h.Quantile(0.25); q != 0.5 {
		t.Errorf("p25 = %v, want 0.5 (midpoint of first bucket)", q)
	}
	if q := h.Quantile(0.75); q != 1.5 {
		t.Errorf("p75 = %v, want 1.5 (midpoint of second bucket)", q)
	}
	// Everything beyond the last finite bound clamps to it.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if q := h2.Quantile(0.99); q != 1 {
		t.Errorf("overflow quantile = %v, want clamp to 1", q)
	}
}

func TestBucketMonotonicity(t *testing.T) {
	h := newHistogram(DefBuckets)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%17) * 0.01)
	}
	var b strings.Builder
	h.write(&b, "m", nil, nil)
	var prev float64 = -1
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "m_bucket") {
			continue
		}
		fields := strings.Fields(line)
		var v float64
		if _, err := fmtSscan(fields[len(fields)-1], &v); err != nil {
			t.Fatalf("bad bucket value in %q", line)
		}
		if v < prev {
			t.Fatalf("bucket counts not monotone: %v after %v", v, prev)
		}
		prev = v
	}
	if h.Count() != 1000 {
		t.Errorf("Count = %d, want 1000", h.Count())
	}
}

// fmtSscan avoids importing fmt just for one parse in the test above.
func fmtSscan(s string, v *float64) (int, error) {
	f, err := parseValue(s)
	if err != nil {
		return 0, err
	}
	*v = f
	return 1, nil
}

// TestConcurrentUpdates exercises every metric type and the gatherer from
// many goroutines at once; its real assertions are the race detector plus
// the final counts.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("snd_c_total", "c")
	g := r.Gauge("snd_g", "g")
	vec := r.CounterVec("snd_v_total", "v", "k")
	h := r.Histogram("snd_h_seconds", "h", nil)

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				vec.With([]string{"a", "b", "c"}[i%3]).Inc()
				h.Observe(float64(i) * 0.001)
				if i%100 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if vec.Sum() != workers*perWorker {
		t.Errorf("vec sum = %d, want %d", vec.Sum(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if errs := Lint(strings.NewReader(b.String())); len(errs) != 0 {
		t.Errorf("post-hammer lint failed: %v", errs)
	}
}

func TestOnGather(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("snd_refreshed", "Refreshed at gather time.")
	calls := 0
	r.OnGather(func() { calls++; g.Set(int64(calls)) })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !strings.Contains(b.String(), "snd_refreshed 1") {
		t.Errorf("gather hook not applied: calls=%d output:\n%s", calls, b.String())
	}
}

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("snd_ex_seconds", "Exemplar test.", nil)
	if _, ok := h.Exemplar(); ok {
		t.Fatal("fresh histogram reports an exemplar")
	}
	h.ObserveWithExemplar(0.2, "trace-slow")
	h.ObserveWithExemplar(0.05, "trace-fast") // smaller: must not displace
	h.ObserveWithExemplar(0.1, "")            // no trace: plain observe
	ex, ok := h.Exemplar()
	if !ok || ex.TraceID != "trace-slow" || ex.Value != 0.2 {
		t.Fatalf("exemplar = %+v ok=%v, want max-value trace-slow", ex, ok)
	}
	h.ObserveWithExemplar(0.9, "trace-slower")
	if ex, _ := h.Exemplar(); ex.TraceID != "trace-slower" {
		t.Fatalf("larger observation did not replace exemplar: %+v", ex)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4 (empty trace ID still observes)", h.Count())
	}
	// Exemplars must not leak into the text exposition: 0.0.4 has no syntax
	// for them and a scraper would choke.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "trace-slower") || strings.Contains(b.String(), "#{") {
		t.Fatalf("exemplar leaked into exposition:\n%s", b.String())
	}
	if errs := Lint(strings.NewReader(b.String())); len(errs) != 0 {
		t.Fatalf("exposition with exemplars fails lint: %v", errs)
	}
}
