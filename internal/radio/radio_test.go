package radio

import (
	"errors"
	"testing"

	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
)

// lineLayout deploys devices at x = 0, 30, 60, 120 on one row.
func lineLayout(t *testing.T) (*deploy.Layout, []*deploy.Device) {
	t.Helper()
	l := deploy.NewLayout(geometry.NewField(200, 50))
	xs := []float64{0, 30, 60, 120}
	devs := make([]*deploy.Device, len(xs))
	for i, x := range xs {
		devs[i] = l.Deploy(geometry.Point{X: x, Y: 10}, 0)
	}
	return l, devs
}

func attachAll(t *testing.T, m *Medium, devs []*deploy.Device) []*Transceiver {
	t.Helper()
	trx := make([]*Transceiver, len(devs))
	for i, d := range devs {
		tr, err := m.Attach(d.Handle)
		if err != nil {
			t.Fatalf("attach %v: %v", d.Handle, err)
		}
		trx[i] = tr
	}
	return trx
}

func TestBroadcastRangeLimited(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50})
	trx := attachAll(t, m, devs)

	n, err := m.Broadcast(devs[0].Handle, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered = %d, want 1 (only the 30 m device)", n)
	}
	msg, ok := trx[1].TryRecv()
	if !ok {
		t.Fatal("in-range device received nothing")
	}
	if msg.FromNode != devs[0].Node || msg.To != nodeid.None || string(msg.Payload) != "hello" {
		t.Errorf("message = %+v", msg)
	}
	if _, ok := trx[2].TryRecv(); ok {
		t.Error("device at 60 m received with R=50")
	}
	if _, ok := trx[0].TryRecv(); ok {
		t.Error("sender received its own frame")
	}
}

func TestUnicastAddressing(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 100})
	trx := attachAll(t, m, devs)

	if _, err := m.Unicast(devs[0].Handle, devs[2].Node, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	if _, ok := trx[1].TryRecv(); ok {
		t.Error("unicast delivered to wrong node")
	}
	msg, ok := trx[2].TryRecv()
	if !ok {
		t.Fatal("addressee received nothing")
	}
	if msg.To != devs[2].Node {
		t.Errorf("To = %v", msg.To)
	}
}

func TestUnicastReachesReplicas(t *testing.T) {
	l, devs := lineLayout(t)
	rep, err := l.DeployReplica(devs[2].Node, geometry.Point{X: 10, Y: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMedium(l, Config{Range: 50})
	attachAll(t, m, devs)
	repTrx, err := m.Attach(rep.Handle)
	if err != nil {
		t.Fatal(err)
	}
	// devs[0] at x=0 unicasts to the logical node of devs[2] (x=60, out of
	// range) — but the replica at x=10 claims that ID and is in range.
	n, err := m.Unicast(devs[0].Handle, devs[2].Node, []byte("for n3"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered = %d, want 1 (the replica)", n)
	}
	if _, ok := repTrx.TryRecv(); !ok {
		t.Error("replica did not receive unicast to its claimed ID")
	}
}

func TestSendErrors(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50})
	// Unattached sender.
	if _, err := m.Broadcast(devs[0].Handle, nil); !errors.Is(err, ErrNotAttached) {
		t.Errorf("unattached err = %v", err)
	}
	attachAll(t, m, devs)
	// Unknown device.
	if _, err := m.Broadcast(deploy.Handle(999), nil); err == nil {
		t.Error("unknown device send succeeded")
	}
	// Dead sender.
	l.Kill(devs[0].Handle)
	if _, err := m.Broadcast(devs[0].Handle, nil); !errors.Is(err, ErrDeviceDead) {
		t.Errorf("dead sender err = %v", err)
	}
}

func TestDeadReceiverSkipped(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50})
	attachAll(t, m, devs)
	l.Kill(devs[1].Handle)
	n, err := m.Broadcast(devs[0].Handle, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("delivered to dead receiver: %d", n)
	}
}

func TestPacketLoss(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50, LossProb: 0.5, Seed: 9})
	attachAll(t, m, devs)
	const sends = 400
	delivered := 0
	for i := 0; i < sends; i++ {
		n, err := m.Broadcast(devs[0].Handle, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		delivered += n
	}
	if delivered < sends/4 || delivered > sends*3/4 {
		t.Errorf("delivered %d of %d with 50%% loss", delivered, sends)
	}
	c := m.Counters()
	if c.LostRandom == 0 {
		t.Error("no random losses counted")
	}
	if c.Sent != sends {
		t.Errorf("Sent = %d", c.Sent)
	}
}

func TestJamming(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50})
	attachAll(t, m, devs)

	// Jam around the receiver at x=30.
	m.Jam(geometry.Circle{Center: geometry.Point{X: 30, Y: 10}, Radius: 5})
	if n, _ := m.Broadcast(devs[0].Handle, []byte("x")); n != 0 {
		t.Errorf("delivered into jammed region: %d", n)
	}
	if m.Counters().LostJammed == 0 {
		t.Error("jam loss not counted")
	}

	// Jammed sender cannot transmit at all.
	m = NewMedium(l, Config{Range: 50})
	attachAll(t, m, devs)
	m.Jam(geometry.Circle{Center: geometry.Point{X: 0, Y: 10}, Radius: 5})
	if n, _ := m.Broadcast(devs[0].Handle, []byte("x")); n != 0 {
		t.Errorf("jammed sender delivered: %d", n)
	}
}

func TestInboxOverflow(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50, InboxSize: 2})
	attachAll(t, m, devs)
	for i := 0; i < 5; i++ {
		if _, err := m.Broadcast(devs[0].Handle, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Counters()
	if c.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2 (inbox size)", c.Delivered)
	}
	if c.LostOverflow != 3 {
		t.Errorf("LostOverflow = %d, want 3", c.LostOverflow)
	}
}

// TestFramesSharedByReference pins the medium's ownership contract: a
// transmission keeps the caller's slice, so every receiver of a broadcast,
// and every receiver of repeated unicasts of one frame, reads the sender's
// own backing array, and sending into queues with room allocates nothing.
func TestFramesSharedByReference(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50})
	trx := attachAll(t, m, devs)
	frame := []byte("one frame")
	shares := func(what string, tr *Transceiver) {
		t.Helper()
		msg, ok := tr.TryRecv()
		if !ok {
			t.Fatalf("%s: nothing received", what)
		}
		if len(msg.Payload) != len(frame) || &msg.Payload[0] != &frame[0] {
			t.Errorf("%s: payload %q does not share the sender's array", what, msg.Payload)
		}
	}

	if n, err := m.Broadcast(devs[1].Handle, frame); err != nil || n != 2 {
		t.Fatalf("broadcast: %d deliveries, %v", n, err)
	}
	shares("broadcast to device 0", trx[0])
	shares("broadcast to device 2", trx[2])

	for _, i := range []int{0, 2} {
		if n, err := m.Unicast(devs[1].Handle, devs[i].Node, frame); err != nil || n != 1 {
			t.Fatalf("unicast to device %d: %d deliveries, %v", i, n, err)
		}
	}
	shares("unicast to device 0", trx[0])
	shares("unicast to device 2", trx[2])

	sends := []struct {
		name string
		fn   func()
	}{
		{"Unicast", func() {
			_, _ = m.Unicast(devs[1].Handle, devs[2].Node, frame)
			_, _ = trx[2].TryRecv()
		}},
		{"Broadcast", func() {
			_, _ = m.Broadcast(devs[1].Handle, frame)
			_, _ = trx[0].TryRecv()
			_, _ = trx[2].TryRecv()
		}},
	}
	for _, s := range sends {
		if got := testing.AllocsPerRun(100, s.fn); got != 0 {
			t.Errorf("%s into queues with room: %v allocs, want 0", s.name, got)
		}
	}
}

func TestAttachIdempotent(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50})
	t1, err := m.Attach(devs[0].Handle)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := m.Attach(devs[0].Handle)
	if t1 != t2 {
		t.Error("re-attach created a new transceiver")
	}
	if _, err := m.Attach(deploy.Handle(999)); err == nil {
		t.Error("attached unknown device")
	}
}

func TestDrainAndCounters(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50})
	trx := attachAll(t, m, devs)
	for i := 0; i < 3; i++ {
		if _, err := m.Broadcast(devs[0].Handle, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	msgs := drain(trx[1])
	if len(msgs) != 3 {
		t.Fatalf("drained %d messages", len(msgs))
	}
	for i, msg := range msgs {
		if msg.Payload[0] != byte(i) {
			t.Errorf("message %d out of order", i)
		}
	}
	if got := m.SentBy(devs[0].Handle); got != 3 {
		t.Errorf("SentBy = %d", got)
	}
	if got := m.BytesSentBy(devs[0].Handle); got != 3 {
		t.Errorf("BytesSentBy = %d", got)
	}
}

func BenchmarkBroadcast200Nodes(b *testing.B) {
	l := deploy.NewLayout(geometry.NewField(100, 100))
	var first *deploy.Device
	for i := 0; i < 200; i++ {
		d := l.Deploy(geometry.Point{X: float64(i % 20 * 5), Y: float64(i / 20 * 10)}, 0)
		if first == nil {
			first = d
		}
	}
	m := NewMedium(l, Config{Range: 50, InboxSize: 4})
	for _, d := range l.Devices() {
		if _, err := m.Attach(d.Handle); err != nil {
			b.Fatal(err)
		}
	}
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Broadcast(first.Handle, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEnergyAccounting(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50})
	attachAll(t, m, devs)
	// One 5-byte broadcast at the CC2420 prices: the sender pays
	// 17 + 0.6·5 = 20 µJ; the single in-range receiver pays 0.67·5 = 3.35.
	if _, err := m.Broadcast(devs[0].Handle, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := m.EnergyUsedBy(devs[0].Handle); got != 20 {
		t.Errorf("sender energy = %v, want 20", got)
	}
	if got := m.EnergyUsedBy(devs[1].Handle); got != 3.35 {
		t.Errorf("receiver energy = %v, want 3.35", got)
	}
	if got := m.EnergyUsedBy(devs[2].Handle); got != 0 {
		t.Errorf("out-of-range device charged %v", got)
	}
}

func TestEnergyDefaultsApplied(t *testing.T) {
	l, devs := lineLayout(t)
	m := NewMedium(l, Config{Range: 50})
	attachAll(t, m, devs)
	if _, err := m.Broadcast(devs[0].Handle, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if m.EnergyUsedBy(devs[0].Handle) <= 0 {
		t.Error("default energy model charged nothing")
	}
}
