package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// ringLen reports how many completed spans the flight recorder holds.
func ringLen(t *Tracer) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

func TestSpanLifecycleAndParenting(t *testing.T) {
	tr := New(Options{Capacity: 64})
	root := tr.StartRoot("http /v1/jobs")
	root.SetAttr("method", "POST")
	child := root.StartChild("job.run")
	child.Event("started", "job", "abc")
	child.End()
	root.End()

	if got := ringLen(tr); got != 2 {
		t.Fatalf("recorded %d spans, want 2", got)
	}
	spans := tr.TraceSpans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("TraceSpans: %d, want 2", len(spans))
	}
	var rootData, childData SpanData
	for _, d := range spans {
		switch d.Name {
		case "http /v1/jobs":
			rootData = d
		case "job.run":
			childData = d
		}
	}
	if rootData.ParentID != "" {
		t.Errorf("root has parent %q", rootData.ParentID)
	}
	if childData.ParentID != rootData.SpanID {
		t.Errorf("child parent = %q, want %q", childData.ParentID, rootData.SpanID)
	}
	if childData.TraceID != rootData.TraceID {
		t.Errorf("trace IDs diverge: %q vs %q", childData.TraceID, rootData.TraceID)
	}
	if rootData.Attr("method") != "POST" {
		t.Errorf("attr lost: %+v", rootData.Attrs)
	}
	if len(childData.Events) != 1 || childData.Events[0].Name != "started" {
		t.Errorf("events: %+v", childData.Events)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.StartRoot("x")
	if s != nil {
		t.Fatal("nil tracer minted a span")
	}
	// Every Span method must no-op on nil.
	s.SetAttr("k", "v")
	s.Event("e")
	s.SetError(fmt.Errorf("boom"))
	s.End()
	if s.TraceID() != "" || s.Traceparent() != "" {
		t.Error("nil span produced identity")
	}
	if c := s.StartChild("child"); c != nil {
		t.Error("nil span minted a child")
	}
	if c := s.StartChildAt("child", SpanID{}, SpanID{}, time.Time{}); c != nil {
		t.Error("nil span minted a child via StartChildAt")
	}
	if tr.Traces(0) != nil || tr.TraceSpans("x") != nil || tr.FindByAttr("a", "b", 0) != nil {
		t.Error("nil tracer returned data")
	}
	tr.Ingest([]SpanData{{TraceID: "t", SpanID: "s"}})
}

func TestRingBufferBounded(t *testing.T) {
	tr := New(Options{Capacity: 8})
	for i := 0; i < 50; i++ {
		s := tr.StartRoot(fmt.Sprintf("span-%d", i))
		s.End()
	}
	if got := ringLen(tr); got != 8 {
		t.Fatalf("ring holds %d, want capacity 8", got)
	}
	// The survivors must be the newest 8.
	names := map[string]bool{}
	for _, sum := range tr.Traces(0) {
		names[sum.Root] = true
	}
	for i := 42; i < 50; i++ {
		if !names[fmt.Sprintf("span-%d", i)] {
			t.Errorf("span-%d evicted, want newest retained", i)
		}
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := New(Options{Capacity: 8})
	s := tr.StartRoot("once")
	s.End()
	s.End()
	if got := ringLen(tr); got != 1 {
		t.Fatalf("recorded %d, want 1", got)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := FormatTraceparent(tid, sid)
	if len(h) != 55 {
		t.Fatalf("header %q has length %d, want 55", h, len(h))
	}
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("round trip failed: %q -> (%v,%v,%v)", h, gotT, gotS, ok)
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-short-short-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // zero span ID
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // forbidden version
		"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // non-hex version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",          // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 with trailing field
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",       // non-hex trace
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want rejected", h)
		}
	}
	// A future version with trailing fields parses.
	if _, _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future"); !ok {
		t.Error("future-version header with extra field rejected")
	}
}

func TestStartRemoteMalformedFallsBackToRoot(t *testing.T) {
	tr := New(Options{Capacity: 8})
	s := tr.StartRemote("w", "not-a-traceparent")
	if s == nil {
		t.Fatal("no span")
	}
	if s.TraceID() == "" {
		t.Fatal("no trace ID on fallback root")
	}
	good := tr.StartRoot("parent")
	s2 := tr.StartRemote("w2", good.Traceparent())
	if s2.TraceID() != good.TraceID() {
		t.Fatalf("remote child trace %q, want %q", s2.TraceID(), good.TraceID())
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if c, s := Start(ctx, "noop"); s != nil || c != ctx {
		t.Fatal("Start without tracer must return (ctx, nil)")
	}
	tr := New(Options{Capacity: 8})
	ctx = WithTracer(ctx, tr)
	ctx1, root := Start(ctx, "root")
	if root == nil || SpanFromContext(ctx1) != root {
		t.Fatal("root span not on context")
	}
	_, child := Start(ctx1, "child")
	child.End()
	root.End()
	spans := tr.TraceSpans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
}

func TestFindByAttrAndSummaries(t *testing.T) {
	tr := New(Options{Capacity: 32})
	a := tr.StartRoot("job a")
	a.SetAttr("job_id", "aaaa")
	a.End()
	b := tr.StartRoot("job b")
	b.SetAttr("job_id", "bbbb")
	bc := b.StartChild("sweep")
	bc.SetError(fmt.Errorf("kaput"))
	bc.End()
	b.End()

	got := tr.FindByAttr("job_id", "bbbb", 0)
	if len(got) != 1 || got[0].TraceID != b.TraceID() {
		t.Fatalf("FindByAttr: %+v", got)
	}
	if got[0].Spans != 2 || got[0].Errors != 1 || got[0].JobID != "bbbb" || got[0].Root != "job b" {
		t.Errorf("summary: %+v", got[0])
	}
	if miss := tr.FindByAttr("job_id", "zzzz", 0); len(miss) != 0 {
		t.Errorf("FindByAttr miss returned %+v", miss)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Capacity: 8, Sink: &buf})
	s := tr.StartRoot("sinked")
	s.Event("hello", "k", "v")
	s.End()

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("sink got no line")
	}
	var d SpanData
	if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
		t.Fatalf("sink line is not JSON: %v", err)
	}
	if d.Name != "sinked" || len(d.Events) != 1 {
		t.Errorf("sink span: %+v", d)
	}
	if sc.Scan() {
		t.Error("sink got extra lines")
	}
}

func TestIngestIsIdempotent(t *testing.T) {
	tr := New(Options{Capacity: 32})
	remote := []SpanData{
		{TraceID: "t1", SpanID: "0102030405060708", Name: "worker.batch", Start: time.Now(), End: time.Now()},
		{TraceID: "t1", SpanID: "1112131415161718", Name: "runner.trial", Start: time.Now(), End: time.Now()},
	}
	tr.Ingest(remote)
	tr.Ingest(remote) // duplicate post after a lost response
	if got := ringLen(tr); got != 2 {
		t.Fatalf("ingest not idempotent: %d spans, want 2", got)
	}
	tr.Ingest([]SpanData{{TraceID: "", SpanID: "ffff"}, {TraceID: "t2", SpanID: ""}})
	if got := ringLen(tr); got != 2 {
		t.Fatalf("unidentified spans ingested: %d, want 2", got)
	}
}

func TestEventCapCounted(t *testing.T) {
	tr := New(Options{Capacity: 8})
	s := tr.StartRoot("chatty")
	for i := 0; i < maxEvents+10; i++ {
		s.Event("e")
	}
	s.End()
	d := tr.TraceSpans(s.TraceID())[0]
	if len(d.Events) != maxEvents {
		t.Fatalf("events %d, want cap %d", len(d.Events), maxEvents)
	}
	if d.Attr("events_dropped") != "10" {
		t.Errorf("events_dropped = %q, want 10", d.Attr("events_dropped"))
	}
}

func TestConcurrentEventsAndChildren(t *testing.T) {
	tr := New(Options{Capacity: 1024})
	root := tr.StartRoot("parallel")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				root.Event("tick", "worker", itoa(i))
				c := root.StartChild("child")
				c.End()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	spans := tr.TraceSpans(root.TraceID())
	if len(spans) != 401 {
		t.Fatalf("got %d spans, want 401", len(spans))
	}
}

func TestSynthesizedSpansViaStartChildAt(t *testing.T) {
	tr := New(Options{Capacity: 32})
	root := tr.StartRoot("sweep")
	pointID := NewSpanID()

	// Trial recorded before its synthesized point parent exists.
	trial := root.StartChildAt("trial", SpanID{}, pointID, time.Time{})
	trial.End()

	start := time.Now().Add(-time.Second)
	end := time.Now()
	point := root.StartChildAt("point", pointID, SpanID{}, start)
	point.EndAt(end)
	root.End()

	spans := tr.TraceSpans(root.TraceID())
	byName := map[string]SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	if byName["trial"].ParentID != pointID.String() {
		t.Errorf("trial parent %q, want point %q", byName["trial"].ParentID, pointID)
	}
	if byName["point"].SpanID != pointID.String() {
		t.Errorf("point span ID %q, want %q", byName["point"].SpanID, pointID)
	}
	if d := byName["point"].End.Sub(byName["point"].Start); d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Errorf("synthesized duration %v, want ~1s", d)
	}
}

func TestTraceparentHeaderNameLowercase(t *testing.T) {
	if Header != strings.ToLower(Header) {
		t.Fatalf("header constant %q must be lowercase", Header)
	}
}
