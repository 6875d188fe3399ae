package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
)

// sweepUnicast is the unicast delivery that predates the addressee walk,
// kept as the oracle: sweep every alive device in range of the sender in
// handle order, keep those claiming `to`, then apply the attach, jam, loss
// and inbox checks. It returns the receivers in delivery order.
func sweepUnicast(m *Medium, h deploy.Handle, to nodeid.ID, payload []byte) ([]deploy.Handle, error) {
	sender := m.layout.Device(h)
	if sender == nil {
		return nil, fmt.Errorf("radio: send from %d: unknown device", h)
	}
	if m.trxAt(h) == nil {
		return nil, ErrNotAttached
	}
	if !sender.Alive {
		return nil, ErrDeviceDead
	}
	body := append([]byte(nil), payload...)
	msg := Message{From: h, FromNode: sender.Node, To: to, Payload: body}
	m.count.Sent++
	m.count.BytesSent += len(body)
	m.perSend[h-1]++
	m.perByte[h-1] += len(body)
	m.energy[h-1] += txBase + txPerByte*float64(len(body))
	if m.inJam(sender.Pos) {
		m.count.LostJammed++
		return nil, nil
	}
	var got []deploy.Handle
	m.layout.ForEachInRange(h, m.cfg.Range, func(rcv *deploy.Device) {
		t := m.trxAt(rcv.Handle)
		if t == nil || rcv.Node != to {
			return
		}
		if m.inJam(rcv.Pos) {
			m.count.LostJammed++
			return
		}
		if m.cfg.LossProb > 0 && m.rng.Float64() < m.cfg.LossProb {
			m.count.LostRandom++
			return
		}
		if len(t.queue)-t.head >= m.cfg.InboxSize {
			m.count.LostOverflow++
			return
		}
		t.queue = append(t.queue, msg)
		got = append(got, rcv.Handle)
		m.count.Delivered++
		m.count.BytesDelivered += len(body)
		m.energy[rcv.Handle-1] += rxPerByte * float64(len(body))
	})
	return got, nil
}

// unicastScene deploys a random field with replicas — some far away, some
// co-located with another device or with their own original — and returns
// the layout and its devices.
func unicastScene(rng *rand.Rand) (*deploy.Layout, []*deploy.Device) {
	const side = 120
	pos := func() geometry.Point { return geometry.Point{X: rng.Float64() * side, Y: rng.Float64() * side} }
	l := deploy.NewLayout(geometry.NewField(side, side))
	var devs []*deploy.Device
	for i := 0; i < 90; i++ {
		devs = append(devs, l.Deploy(pos(), 0))
	}
	for i := 0; i < 25; i++ {
		victim := devs[rng.Intn(90)].Node
		at := pos()
		switch rng.Intn(3) {
		case 0: // on top of some other device, a likely sender
			at = devs[rng.Intn(len(devs))].Pos
		case 1: // a twin at the victim's own position
			at = l.Primary(victim).Pos
		}
		d, err := l.DeployReplica(victim, at, 1)
		if err != nil {
			panic(err)
		}
		devs = append(devs, d)
	}
	return l, devs
}

// TestUnicastMatchesRangeSweep runs the same unicast script through the
// addressee walk and through the range-sweep oracle on twin media — same
// layout, seed, jam circles and LossProb 0.3 — and requires the same
// receivers per frame, counters, inbox contents and per-device energy.
// Loss draws follow visit order, so matching receivers over thousands of
// lossy frames also shows both paths draw for the same devices in the same
// order.
func TestUnicastMatchesRangeSweep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, devs := unicastScene(rng)
		cfg := Config{Range: 30, LossProb: 0.3, Seed: seed, InboxSize: 3}
		fast, oracle := NewMedium(l, cfg), NewMedium(l, cfg)
		for i, d := range devs {
			if i%11 == 5 {
				continue // left off the air
			}
			for _, m := range []*Medium{fast, oracle} {
				if _, err := m.Attach(d.Handle); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 6; i++ {
			l.Kill(devs[rng.Intn(len(devs))].Handle)
		}
		for i := 0; i < 2; i++ {
			c := geometry.Circle{Center: geometry.Point{X: rng.Float64() * 120, Y: rng.Float64() * 120}, Radius: 15}
			fast.Jam(c)
			oracle.Jam(c)
		}

		for call := 0; call < 400; call++ {
			src := devs[rng.Intn(len(devs))]
			var to nodeid.ID
			switch rng.Intn(4) {
			case 0:
				to = src.Node // a replica's own identity, or a twin's
			case 1:
				to = devs[90+rng.Intn(len(devs)-90)].Node // a replicated identity
			case 2:
				to = nodeid.ID(1000) // nobody
			default:
				to = devs[rng.Intn(len(devs))].Node
			}
			payload := []byte{byte(call), byte(call >> 8)}
			n, errFast := fast.Unicast(src.Handle, to, payload)
			want, errOracle := sweepUnicast(oracle, src.Handle, to, payload)
			if (errFast == nil) != (errOracle == nil) {
				t.Fatalf("seed %d call %d: errors differ: %v vs %v", seed, call, errFast, errOracle)
			}
			if !slices.IsSorted(want) {
				t.Fatalf("seed %d call %d: oracle delivered out of handle order: %v", seed, call, want)
			}
			if n != len(want) {
				t.Fatalf("seed %d call %d: %v->%v delivered %d, oracle %v", seed, call, src.Handle, to, n, want)
			}
			if got, want := fast.Counters(), oracle.Counters(); got != want {
				t.Fatalf("seed %d call %d: counters %+v, oracle %+v", seed, call, got, want)
			}
			if call%3 != 2 {
				continue // let inboxes fill, so overflow is compared too
			}
			for _, d := range devs {
				got, exp := drainIfAttached(fast, d.Handle), drainIfAttached(oracle, d.Handle)
				if !slices.EqualFunc(got, exp, sameFrame) {
					t.Fatalf("seed %d call %d: inbox of %d = %v, oracle %v", seed, call, d.Handle, got, exp)
				}
			}
		}
		for _, d := range devs {
			if a, b := fast.EnergyUsedBy(d.Handle), oracle.EnergyUsedBy(d.Handle); a != b {
				t.Fatalf("seed %d: energy of %d = %v, oracle %v", seed, d.Handle, a, b)
			}
		}
		if a, b := fast.rng.Int63(), oracle.rng.Int63(); a != b {
			t.Fatalf("seed %d: loss streams diverged", seed)
		}
	}
}

func drainIfAttached(m *Medium, h deploy.Handle) []Message {
	t := m.trxAt(h)
	if t == nil {
		return nil
	}
	return drain(t)
}

func sameFrame(a, b Message) bool {
	return a.From == b.From && a.FromNode == b.FromNode && a.To == b.To && string(a.Payload) == string(b.Payload)
}
