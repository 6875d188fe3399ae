package radio

import (
	"runtime"
	"testing"

	"snd/internal/deploy"
	"snd/internal/geometry"
)

// drain pops every pending frame of t in arrival order.
func drain(t *Transceiver) []Message {
	var out []Message
	for msg, ok := t.TryRecv(); ok; msg, ok = t.TryRecv() {
		out = append(out, msg)
	}
	return out
}

// TestAttachAllocatesNoQueue pins that a transceiver costs O(1) memory no
// matter how large InboxSize is: the bound caps the backlog, it does not
// reserve it.
func TestAttachAllocatesNoQueue(t *testing.T) {
	const devices = 10000
	l := deploy.NewLayout(geometry.NewField(1000, 1000))
	for i := 0; i < devices; i++ {
		l.Deploy(geometry.Point{X: float64(i % 100 * 10), Y: float64(i / 100 * 10)}, 0)
	}
	m := NewMedium(l, Config{Range: 25, InboxSize: 8192})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, d := range l.Devices() {
		if _, err := m.Attach(d.Handle); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perDevice := (after.TotalAlloc - before.TotalAlloc) / devices; perDevice >= 1024 {
		t.Errorf("Attach allocated %d B per device, want < 1 KiB", perDevice)
	}
}

// TestQueueFIFOAcrossReset interleaves sends and drains so the queue
// empties (and resets onto its backing array) several times, and checks
// frames still come out in send order with popped slots zeroed.
func TestQueueFIFOAcrossReset(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50, InboxSize: 4})
	trx := attachAll(t, m, devs) // only devs[1] hears devs[0]
	next, want := byte(0), byte(0)
	send := func(n int) {
		for ; n > 0; n-- {
			if _, err := trx[0].Send([]byte{next}); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	recv := func(n int) {
		for ; n > 0; n-- {
			msg, ok := trx[1].TryRecv()
			if !ok {
				t.Fatalf("queue empty, want frame %d", want)
			}
			if msg.Payload[0] != want {
				t.Fatalf("got frame %d, want %d", msg.Payload[0], want)
			}
			want++
		}
	}
	send(3)
	recv(2)
	if trx[1].queue[0].Payload != nil {
		t.Error("popped slot still pins its payload")
	}
	send(2)
	recv(3) // drains: reset to [:0]
	send(2)
	recv(1)
	send(1)
	recv(2) // drains again
	send(4)
	recv(4)
	if _, ok := trx[1].TryRecv(); ok {
		t.Error("frame left after draining everything sent")
	}
	if c := m.Counters(); c.LostOverflow != 0 || c.Delivered != int(next) {
		t.Errorf("counters = %+v, want %d delivered and no overflow", c, next)
	}
}

// TestOverflowCountsPendingFrames checks InboxSize bounds the frames
// pending at once, not the frames delivered over the queue's lifetime.
func TestOverflowCountsPendingFrames(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50, InboxSize: 4})
	trx := attachAll(t, m, devs)
	broadcast := func(n int) {
		for ; n > 0; n-- {
			if _, err := trx[0].Send([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	broadcast(5) // 4 queue, 1 overflows
	if c := m.Counters(); c.Delivered != 4 || c.LostOverflow != 1 {
		t.Fatalf("full queue: counters = %+v, want 4 delivered, 1 overflow", c)
	}
	trx[1].TryRecv()
	trx[1].TryRecv()
	broadcast(3) // room for 2 again, the third overflows
	if c := m.Counters(); c.Delivered != 6 || c.LostOverflow != 2 {
		t.Errorf("after partial drain: counters = %+v, want 6 delivered, 2 overflow", c)
	}
	if got := len(drain(trx[1])); got != 4 {
		t.Errorf("pending = %d, want 4", got)
	}
}

// TestReadyOnDemand checks the wake-up channel exists only once asked
// for: deliveries before that signal nothing, a first Ready call over
// pending frames yields a token at once, and later deliveries raise at
// most one token however many frames they queue.
func TestReadyOnDemand(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50})
	trx := attachAll(t, m, devs) // only devs[1] hears devs[0]
	if trx[1].ready != nil {
		t.Fatal("Attach made a Ready channel")
	}
	send := func(b byte) {
		t.Helper()
		if _, err := trx[0].Send([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	token := func() bool {
		select {
		case <-trx[1].Ready():
			return true
		default:
			return false
		}
	}
	send(0)
	if trx[1].ready != nil {
		t.Fatal("a delivery made a Ready channel")
	}
	if !token() {
		t.Error("first Ready over a pending frame yielded no token")
	}
	if token() {
		t.Error("Ready yielded a second token for one frame")
	}
	send(1)
	send(2)
	if !token() || token() {
		t.Error("two deliveries should raise exactly one token")
	}
	if msgs := drain(trx[1]); len(msgs) != 3 || msgs[0].Payload[0] != 0 || msgs[2].Payload[0] != 2 {
		t.Errorf("drained %v, want frames 0, 1, 2", msgs)
	}
	if token() {
		t.Error("token without a delivery")
	}
	if trx[2].ready != nil {
		t.Error("a transceiver that never asked has a Ready channel")
	}
}
