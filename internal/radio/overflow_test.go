package radio

import (
	"sync"
	"testing"

	"snd/internal/deploy"
	"snd/internal/geometry"
)

// TestOverflowAccountingConcurrentSenders hammers one never-draining
// receiver from many goroutines and checks the medium's bookkeeping is
// exact: with a single in-range recipient every send is either delivered
// or dropped on the full inbox, never both, never neither — even when
// sends race. Run under -race this also proves the counter updates are
// properly serialized.
func TestOverflowAccountingConcurrentSenders(t *testing.T) {
	t.Parallel()
	const (
		senders   = 8
		perSender = 50
		inboxSize = 16
	)

	layout := deploy.NewLayout(geometry.NewField(100, 100))
	center := geometry.Point{X: 50, Y: 50}
	receiver := layout.Deploy(center, 0)
	medium := NewMedium(layout, Config{Range: 50, InboxSize: inboxSize})
	if _, err := medium.Attach(receiver.Handle); err != nil {
		t.Fatal(err)
	}

	handles := make([]deploy.Handle, senders)
	for i := range handles {
		d := layout.Deploy(center, 0)
		if _, err := medium.Attach(d.Handle); err != nil {
			t.Fatal(err)
		}
		handles[i] = d.Handle
	}

	// Unicast to the receiver's logical ID: the senders all claim other
	// IDs, so the receiver is the only possible recipient and its inbox
	// is never drained.
	var wg sync.WaitGroup
	for _, h := range handles {
		wg.Add(1)
		go func(h deploy.Handle) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if _, err := medium.Unicast(h, receiver.Node, []byte{0xab}); err != nil {
					t.Error(err)
					return
				}
			}
		}(h)
	}
	wg.Wait()

	const total = senders * perSender
	c := medium.Counters()
	if c.Sent != total {
		t.Errorf("Sent = %d, want %d", c.Sent, total)
	}
	if c.Delivered != inboxSize {
		t.Errorf("Delivered = %d, want exactly the inbox capacity %d", c.Delivered, inboxSize)
	}
	if c.LostOverflow != total-inboxSize {
		t.Errorf("LostOverflow = %d, want %d", c.LostOverflow, total-inboxSize)
	}
	if c.Delivered+c.LostOverflow != c.Sent {
		t.Errorf("delivered %d + overflow %d != sent %d", c.Delivered, c.LostOverflow, c.Sent)
	}
	if c.LostRandom != 0 || c.LostJammed != 0 {
		t.Errorf("unexpected losses: random %d, jammed %d", c.LostRandom, c.LostJammed)
	}

	// The queued frames are really there and stop at capacity.
	trx, err := medium.Attach(receiver.Handle)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(trx)); got != inboxSize {
		t.Errorf("drained %d frames, want %d", got, inboxSize)
	}
}
