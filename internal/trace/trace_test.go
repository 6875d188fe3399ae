package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestRingRecordsAndCounts(t *testing.T) {
	r := NewRing(10)
	r.Record(Event{Kind: KindHello, Node: 1})
	r.Record(Event{Kind: KindRecordAccepted, Node: 2, Peer: 1})
	r.Record(Event{Kind: KindRecordAccepted, Node: 3, Peer: 1})

	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Seq != 1 || events[2].Seq != 3 {
		t.Errorf("sequence numbers = %d..%d", events[0].Seq, events[2].Seq)
	}
	if r.Count(KindRecordAccepted) != 2 || r.Count(KindHello) != 1 {
		t.Errorf("counts = %d, %d", r.Count(KindRecordAccepted), r.Count(KindHello))
	}
	if r.Total() != 3 {
		t.Errorf("total = %d", r.Total())
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Record(Event{Kind: KindHello, Node: 1})
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("retained = %d, want 3", len(events))
	}
	if events[0].Seq != 3 || events[2].Seq != 5 {
		t.Errorf("retained seqs %d..%d, want 3..5", events[0].Seq, events[2].Seq)
	}
	// Lifetime count survives eviction.
	if r.Count(KindHello) != 5 {
		t.Errorf("lifetime count = %d", r.Count(KindHello))
	}
	// Wrapping more than once keeps the newest three, oldest first.
	for i := 6; i <= 8; i++ {
		r.Record(Event{Kind: KindHello, Node: 1})
	}
	events = r.Events()
	if len(events) != 3 {
		t.Fatalf("retained after wrap = %d, want 3", len(events))
	}
	for i, e := range events {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("event %d: seq %d, want %d (retained %v)", i, e.Seq, want, events)
		}
	}
	if r.Total() != 8 || r.Count(KindHello) != 8 {
		t.Errorf("total = %d, hello = %d, want 8", r.Total(), r.Count(KindHello))
	}
}

func TestRingFilterAndDump(t *testing.T) {
	r := NewRing(10)
	r.Record(Event{Kind: KindHello, Node: 1})
	r.Record(Event{Kind: KindCommitRejected, Node: 2, Peer: 9})
	rejected := r.Filter(func(e Event) bool { return e.Kind == KindCommitRejected })
	if len(rejected) != 1 || rejected[0].Peer != 9 {
		t.Errorf("filter = %+v", rejected)
	}
	dump := r.Dump()
	if !strings.Contains(dump, "hello") || !strings.Contains(dump, "commit-rejected") {
		t.Errorf("dump:\n%s", dump)
	}
	if !strings.Contains(dump, "n2<-n9") {
		t.Errorf("peer rendering missing:\n%s", dump)
	}
}

func TestKindString(t *testing.T) {
	if KindValidated.String() != "validated" {
		t.Errorf("String = %q", KindValidated.String())
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestRingZeroCapacityClamped(t *testing.T) {
	r := NewRing(0)
	r.Record(Event{Kind: KindHello})
	if len(r.Events()) != 1 {
		t.Error("clamped ring dropped its only event")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Kind: KindHello})
				_ = r.Events()
			}
		}()
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Errorf("total = %d, want 800", r.Total())
	}
}

func TestCountsRecorder(t *testing.T) {
	var c Counts
	c.Record(Event{Kind: KindHello})
	c.Record(Event{Kind: KindHello})
	c.Record(Event{Kind: KindMalformed})
	c.Record(Event{Kind: Kind(99)}) // out of range: counted in total only
	if c.Count(KindHello) != 2 || c.Count(KindMalformed) != 1 {
		t.Errorf("counts hello=%d malformed=%d", c.Count(KindHello), c.Count(KindMalformed))
	}
	if c.Total() != 4 {
		t.Errorf("total = %d, want 4", c.Total())
	}
	snap := c.Snapshot()
	if snap[KindHello] != 2 || len(snap) != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	if c.Count(Kind(99)) != 0 {
		t.Error("out-of-range kind should count as 0")
	}
}

func TestKindsOrdered(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != int(maxKind) || kinds[0] != KindHello || kinds[len(kinds)-1] != KindMalformed {
		t.Errorf("Kinds() = %v", kinds)
	}
}
