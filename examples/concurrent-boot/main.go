// Concurrent-boot runs the whole network's neighbor discovery with one
// goroutine per node over the shared radio medium — no global coordinator,
// every node an independent event loop — and compares the result against
// the analytical prediction, with and without packet loss.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"snd"
	"snd/internal/deploy"
	"snd/internal/radio"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		nodes     = 150
		rng       = 50.0
		threshold = 10
	)
	for _, loss := range []float64{0, 0.2} {
		layout := snd.NewLayout(snd.NewField(100, 100))
		layout.DeploySampled(deploy.Uniform{}, nodes, rand.New(rand.NewSource(3)), 0)
		medium := radio.NewMedium(layout, radio.Config{
			Range: rng, LossProb: loss, InboxSize: 8192, Seed: 4,
		})
		master, err := snd.NewMasterKey(nil)
		if err != nil {
			return err
		}
		start := time.Now()
		functional, err := snd.DiscoverAll(layout, medium, master,
			snd.AsyncConfig{Threshold: threshold}, snd.OracleVerifier{})
		if err != nil {
			return err
		}
		truth := layout.TruthGraph(rng)
		acc := snd.TopologyAccuracy(functional, truth)
		c := medium.Counters()
		fmt.Printf("loss %.0f%%: %d goroutine-nodes booted in %v\n", loss*100, nodes, time.Since(start).Round(time.Millisecond))
		fmt.Printf("  functional relations: %d of %d actual (accuracy %.3f)\n",
			functional.NumRelations(), truth.NumRelations(), acc)
		fmt.Printf("  radio: %d sent, %d delivered, %d lost\n\n", c.Sent, c.Delivered, c.LostRandom)
	}
	model := snd.AnalyticalModel{Density: float64(150) / 10000, Range: rng}
	fmt.Printf("analytical prediction at t=%d: %.3f\n", threshold, model.Accuracy(threshold))
	return nil
}
