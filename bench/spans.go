package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"snd"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one op share Trace
// (workload/op/N, workload/job/N or workload/probe/N); Parent 0 marks a
// root. Start and End are Unix nanoseconds.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Trace  string             `json:"trace"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	bytes0 uint64
	objs0  uint64
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []Span
	heap  []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{heap: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

// allocs reads the process's cumulative heap allocation counters. Callers
// hold t.mu.
func (t *tracer) allocs() (bytes, objects uint64) {
	metrics.Read(t.heap)
	return t.heap[0].Value.Uint64(), t.heap[1].Value.Uint64()
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(trace, name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, o := t.allocs()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: time.Now().UnixNano(), bytes0: b, objs0: o,
	})
	return len(t.spans)
}

// end closes span id, stamps its heap allocation attributes, and returns
// the closed span (the zero Span for id 0).
func (t *tracer) end(id int) Span {
	if t == nil || id == 0 {
		return Span{}
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, o := t.allocs()
	s := &t.spans[id-1]
	s.End = now
	s.Attrs = map[string]float64{
		"alloc_mb": float64(b-s.bytes0) / (1 << 20),
		"allocs":   float64(o - s.objs0),
	}
	return *s
}

// add records an already finished span (one fetched from sndserve's
// flight recorder) and returns its ID.
func (t *tracer) add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) all() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// phaseNames are the stages of one discovery round, split at the first
// event of each kind: deploy, grid, radio attach, tentative graph and
// BeginDiscovery run before the first hello; record exchange follows the
// first record decision; validation and commitments follow the first
// validated event.
var phaseNames = [...]string{"sim.round.prepare", "sim.round.hello", "sim.round.records", "sim.round.commit"}

// phases is the snd.SimParams.Recorder of a traced trial. It keys on
// TraceEvent.Kind.String() only, so it needs no internal event types, and
// it is active only between start and finish: later rounds of the same
// simulation (the attack probe's staging round) are not split.
type phases struct {
	t        *tracer
	trace    string
	round    int // open round span; 0 when inactive
	cur      int // open phase span
	stage    int
	lastKind snd.TraceKind
	done     []Span
}

func (p *phases) start(round int) {
	p.round, p.stage, p.lastKind, p.done = round, 0, 0, nil
	p.cur = p.t.begin(p.trace, phaseNames[0], round)
}

// Record implements the simulation's event recorder.
func (p *phases) Record(e snd.TraceEvent) {
	if p.round == 0 || e.Kind == p.lastKind {
		return
	}
	p.lastKind = e.Kind
	stage := 0
	switch e.Kind.String() {
	case "hello":
		stage = 1
	case "record-accepted", "record-rejected":
		stage = 2
	case "validated":
		stage = 3
	}
	for p.stage < stage {
		p.done = append(p.done, p.t.end(p.cur))
		p.stage++
		p.cur = p.t.begin(p.trace, phaseNames[p.stage], p.round)
	}
}

// finish closes the open phase and returns every phase span of the round.
func (p *phases) finish() []Span {
	p.done = append(p.done, p.t.end(p.cur))
	p.round = 0
	return p.done
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover.
func selfTimes(spans []Span) map[string]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		switch {
		case e <= s:
		case curE == 0 || s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	return time.Duration(total + curE - curS)
}

// writeSelfTimes prints the self-time table, largest first.
func writeSelfTimes(w io.Writer, spans []Span) {
	self := selfTimes(spans)
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "  %-32s %6s %12s %12s\n", "span", "count", "self ms", "self ms/span")
	for _, n := range names {
		ms := self[n].Seconds() * 1e3
		fmt.Fprintf(w, "  %-32s %6d %12.3f %12.4f\n", n, count[n], ms, ms/float64(count[n]))
	}
}

// WriteJSONL writes one span per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
