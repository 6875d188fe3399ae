// Package trace is the repository's distributed-tracing substrate: a
// dependency-free span tracer with W3C traceparent propagation and a
// bounded in-memory flight recorder, built for the coordinator/worker
// split in internal/dist. A single sweep now spans processes — an HTTP
// submit on the coordinator, lease grants and expiries on the lease
// table, trial execution on whichever worker won the batch — and when a
// lease expires or a batch is requeued, aggregate counters cannot answer
// "what happened to *this* job". Spans can: every request, job, sweep,
// batch, and (sampled) trial records its trace ID, parent link, timing,
// attributes, and events into a ring buffer queryable by trace or by
// attribute (GET /v1/debug/traces), and optionally streams to a JSONL
// sink for offline reconstruction.
//
// Design constraints, in order:
//
//   - The hot path must stay wait-free when tracing is off. Every Span
//     method is nil-safe (a nil *Span no-ops), so instrumented code holds
//     a possibly-nil span and never branches on configuration itself.
//     With no tracer on the context, starting a span costs one context
//     lookup and returns nil.
//   - Per-trial spans are sampled (Options.TrialSampling); the default
//     keeps them off entirely so an n=10⁶ sweep records a handful of
//     spans, not a million.
//   - Completed spans are immutable SpanData snapshots. Workers ship
//     their batch subtree back to the coordinator inside the results
//     post, and Tracer.Ingest merges them (idempotently, keyed by span
//     ID) so the coordinator's flight recorder holds the whole
//     cross-process trace.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace identifier shared by every span of one
// causal chain.
type TraceID [16]byte

// SpanID is the 8-byte identifier of one span.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// idSource is a cheap concurrency-safe generator: one crypto/rand seed,
// then SplitMix64 per ID. IDs need uniqueness, not unpredictability.
var idCounter atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		idCounter.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idCounter.Store(uint64(time.Now().UnixNano()))
	}
}

func nextID() uint64 {
	z := idCounter.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewTraceID returns a fresh random trace ID.
func NewTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], nextID())
	binary.BigEndian.PutUint64(t[8:], nextID())
	return t
}

// NewSpanID returns a fresh random span ID.
func NewSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], nextID())
	return s
}

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Event is a timestamped point annotation inside a span — a lease expiry,
// a requeue, a cache hit. Events are how one long-lived span (a sweep)
// records a causal chain without allocating a span per step.
type Event struct {
	Time  time.Time `json:"time"`
	Name  string    `json:"name"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// SpanData is the immutable snapshot of a completed span — the ring
// buffer entry, the JSONL sink line, and the wire form workers ship back
// to the coordinator.
type SpanData struct {
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Attrs    []Attr    `json:"attrs,omitempty"`
	Events   []Event   `json:"events,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// Attr returns the value of the named attribute, or "".
func (d SpanData) Attr(key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// maxEvents bounds one span's event list so a pathological sweep (a
// million-batch schedule, a worker renewing in a tight loop) cannot grow
// a span without bound. Overflow drops newest-first and is counted in the
// events_dropped attribute, so a truncated chain is visibly truncated.
const maxEvents = 2048

// maxAttrs bounds the attribute list the same way.
const maxAttrs = 64

// Options configures a Tracer.
type Options struct {
	// Capacity is the flight recorder's size in completed spans; the ring
	// overwrites oldest-first. 0 means DefaultCapacity.
	Capacity int
	// TrialSampling records a span for every Nth trial of a traced sweep;
	// 0 disables per-trial spans (the default — sweep and point spans
	// still record, so the hot path of a million-cell sweep stays clean).
	TrialSampling int
	// Sink, when non-nil, additionally receives every completed span as
	// one JSON line. Writes are serialized by the tracer.
	Sink io.Writer
}

// DefaultCapacity is the flight-recorder ring size when Options.Capacity
// is zero.
const DefaultCapacity = 4096

// Tracer owns the span ring buffer and mints spans. The zero value is not
// usable; construct with New. A nil *Tracer is a valid "tracing off"
// tracer: every method no-ops and every started span is nil.
type Tracer struct {
	capacity      int
	trialSampling int

	sinkMu sync.Mutex
	sink   io.Writer

	mu   sync.Mutex
	ring []SpanData
	next int // ring insert position
	full bool
	ids  map[SpanID]struct{} // spans currently in the ring, for idempotent ingest
}

// New builds a tracer with a bounded flight recorder.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	return &Tracer{
		capacity:      opts.Capacity,
		trialSampling: opts.TrialSampling,
		sink:          opts.Sink,
		ring:          make([]SpanData, 0, min(opts.Capacity, 256)),
		ids:           make(map[SpanID]struct{}),
	}
}

// TrialSampling reports the per-trial sampling interval (0 = off).
func (t *Tracer) TrialSampling() int {
	if t == nil {
		return 0
	}
	return t.trialSampling
}

// StartRoot begins a new trace.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tracer:  t,
		traceID: NewTraceID(),
		spanID:  NewSpanID(),
		name:    name,
		start:   time.Now(),
	}
}

// StartRemote begins a span that continues the trace in the traceparent
// header, or a fresh root when the header is empty or malformed — a bad
// caller degrades to an unlinked trace, never to an error.
func (t *Tracer) StartRemote(name, traceparent string) *Span {
	if t == nil {
		return nil
	}
	traceID, parentID, ok := ParseTraceparent(traceparent)
	if !ok {
		return t.StartRoot(name)
	}
	return &Span{
		tracer:   t,
		traceID:  traceID,
		spanID:   NewSpanID(),
		parentID: parentID,
		name:     name,
		start:    time.Now(),
	}
}

// record inserts one completed span into the ring (overwriting the oldest
// entry at capacity) and streams it to the sink.
func (t *Tracer) record(d SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var id SpanID
	if b, err := hex.DecodeString(d.SpanID); err == nil && len(b) == len(id) {
		copy(id[:], b)
		if _, dup := t.ids[id]; dup {
			t.mu.Unlock()
			return
		}
		t.ids[id] = struct{}{}
	}
	if len(t.ring) < t.capacity && !t.full {
		t.ring = append(t.ring, d)
	} else {
		t.full = true
		t.evictLocked(t.ring[t.next])
		t.ring[t.next] = d
	}
	t.next = (t.next + 1) % t.capacity
	t.mu.Unlock()

	if t.sink != nil {
		if line, err := json.Marshal(d); err == nil {
			t.sinkMu.Lock()
			t.sink.Write(append(line, '\n'))
			t.sinkMu.Unlock()
		}
	}
}

func (t *Tracer) evictLocked(old SpanData) {
	var id SpanID
	if b, err := hex.DecodeString(old.SpanID); err == nil && len(b) == len(id) {
		copy(id[:], b)
		delete(t.ids, id)
	}
}

// Ingest merges externally-completed spans — a worker's batch subtree
// arriving inside a results post — into the flight recorder. Spans whose
// ID is already present are dropped, so a worker re-posting results after
// a lost response stays idempotent here too.
func (t *Tracer) Ingest(spans []SpanData) {
	if t == nil {
		return
	}
	for _, d := range spans {
		if d.TraceID == "" || d.SpanID == "" {
			continue
		}
		t.record(d)
	}
}

// snapshot copies the ring oldest-first.
func (t *Tracer) snapshot() []SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, len(t.ring))
	if t.full {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// TraceSummary is one trace's flight-recorder digest.
type TraceSummary struct {
	TraceID string    `json:"trace_id"`
	Root    string    `json:"root,omitempty"` // name of the parentless span, if captured
	JobID   string    `json:"job_id,omitempty"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Spans   int       `json:"spans"`
	Errors  int       `json:"errors"`
}

// Traces summarizes the recorded traces, most recently ended first, up to
// limit (0 means all).
func (t *Tracer) Traces(limit int) []TraceSummary {
	if t == nil {
		return nil
	}
	byTrace := map[string]*TraceSummary{}
	var order []string
	for _, d := range t.snapshot() {
		s := byTrace[d.TraceID]
		if s == nil {
			s = &TraceSummary{TraceID: d.TraceID, Start: d.Start, End: d.End}
			byTrace[d.TraceID] = s
			order = append(order, d.TraceID)
		}
		s.Spans++
		if d.Error != "" {
			s.Errors++
		}
		if d.Start.Before(s.Start) {
			s.Start = d.Start
		}
		if d.End.After(s.End) {
			s.End = d.End
		}
		if d.ParentID == "" && s.Root == "" {
			s.Root = d.Name
		}
		if job := d.Attr("job_id"); job != "" && s.JobID == "" {
			s.JobID = job
		}
	}
	out := make([]TraceSummary, 0, len(order))
	for _, id := range order {
		out = append(out, *byTrace[id])
	}
	// Most recently ended first; the ring is oldest-first, so a simple
	// sort by End descending is stable enough for a debug view.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].End.After(out[i].End) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// TraceSpans returns every recorded span of one trace, sorted by start
// time (ties broken by span ID for determinism).
func (t *Tracer) TraceSpans(traceID string) []SpanData {
	if t == nil {
		return nil
	}
	var out []SpanData
	for _, d := range t.snapshot() {
		if d.TraceID == traceID {
			out = append(out, d)
		}
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].Start.Before(out[i].Start) ||
				(out[j].Start.Equal(out[i].Start) && out[j].SpanID < out[i].SpanID) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// FindByAttr returns the summaries of traces containing at least one span
// with the given attribute — the job-ID lookup behind
// GET /v1/debug/traces?job=....
func (t *Tracer) FindByAttr(key, value string, limit int) []TraceSummary {
	if t == nil {
		return nil
	}
	match := map[string]bool{}
	for _, d := range t.snapshot() {
		if d.Attr(key) == value {
			match[d.TraceID] = true
		}
	}
	var out []TraceSummary
	for _, s := range t.Traces(0) {
		if match[s.TraceID] {
			out = append(out, s)
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out
}

// Span is one in-flight operation. All methods are safe on a nil receiver
// (no-ops returning zero values), so instrumented code never guards on
// whether tracing is configured. All methods are safe for concurrent use;
// internal/dist records events on a sweep's span from many goroutines.
type Span struct {
	tracer   *Tracer
	traceID  TraceID
	spanID   SpanID
	parentID SpanID
	name     string
	start    time.Time

	mu            sync.Mutex
	attrs         []Attr
	events        []Event
	eventsDropped int
	errMsg        string
	ended         bool
}

// Tracer returns the tracer that minted the span (nil for a nil span).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// TraceID returns the span's trace ID as a hex string ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID.String()
}

// Traceparent renders the W3C propagation header for this span ("" for
// nil) — the value a child process hands to StartRemote.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.traceID, s.spanID)
}

// StartChild begins a child span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer:   s.tracer,
		traceID:  s.traceID,
		spanID:   NewSpanID(),
		parentID: s.spanID,
		name:     name,
		start:    time.Now(),
	}
}

// StartChildAt begins a child span with explicit identity and start time:
// a zero id mints a fresh one, a zero parent parents to s, and a zero
// start means now. internal/runner uses it to synthesize the sweep →
// point → trial hierarchy: point span IDs are allocated up front so
// sampled trial spans can name their point as parent before the point
// span itself is recorded.
func (s *Span) StartChildAt(name string, id, parent SpanID, start time.Time) *Span {
	if s == nil {
		return nil
	}
	if id.IsZero() {
		id = NewSpanID()
	}
	if parent.IsZero() {
		parent = s.spanID
	}
	if start.IsZero() {
		start = time.Now()
	}
	return &Span{
		tracer:   s.tracer,
		traceID:  s.traceID,
		spanID:   id,
		parentID: parent,
		name:     name,
		start:    start,
	}
}

// SetAttr annotates the span. Attributes beyond the cap are dropped.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	if len(s.attrs) < maxAttrs {
		s.attrs = append(s.attrs, Attr{key, value})
	}
}

// Event appends a timestamped event with alternating key/value attribute
// pairs. Events past the per-span cap are counted and dropped.
func (s *Span) Event(name string, kv ...string) {
	if s == nil {
		return
	}
	var attrs []Attr
	for i := 0; i+1 < len(kv); i += 2 {
		attrs = append(attrs, Attr{kv[i], kv[i+1]})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) >= maxEvents {
		s.eventsDropped++
		return
	}
	s.events = append(s.events, Event{Time: time.Now(), Name: name, Attrs: attrs})
}

// SetError marks the span failed.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.errMsg = err.Error()
}

// End completes the span now and records it into the flight recorder.
// Ending twice records once.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt completes the span at an explicit time — for synthesized spans
// whose extent was measured elsewhere (per-point windows in the runner).
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	if s.eventsDropped > 0 {
		s.attrs = append(s.attrs, Attr{"events_dropped", itoa(s.eventsDropped)})
	}
	d := SpanData{
		TraceID: s.traceID.String(),
		SpanID:  s.spanID.String(),
		Name:    s.name,
		Start:   s.start,
		End:     at,
		Attrs:   append([]Attr(nil), s.attrs...),
		Events:  append([]Event(nil), s.events...),
		Error:   s.errMsg,
	}
	if !s.parentID.IsZero() {
		d.ParentID = s.parentID.String()
	}
	s.mu.Unlock()
	s.tracer.record(d)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
