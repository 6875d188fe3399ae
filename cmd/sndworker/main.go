// Command sndworker is the fleet half of distributed sweep execution: it
// attaches to a sndserve coordinator (-coordinator URL), leases sweep
// batches over /v1/dist/*, executes their (point, trial) cells through the
// same experiment registry the server dispatches, and posts per-cell
// results back. Trials are pure functions of (params, point, trial), so a
// worker's samples are bit-identical to local execution; its trial cache
// (-store, mem:// by default; share a file:// or s3:// URL with the whole
// fleet) makes re-leased work cheap.
//
//	sndworker -coordinator http://coordinator:8080 -name rack1 -workers 4
//
// SIGINT/SIGTERM drains gracefully — the in-flight batch finishes and
// reports, then the process exits; a second signal aborts immediately and
// the coordinator re-queues the abandoned lease after its TTL. Workers are
// therefore safe to kill at any moment: failover costs time, never
// correctness.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"snd/internal/dist"
	"snd/internal/exp"
	"snd/internal/obs"
	"snd/internal/obs/trace"
	"snd/internal/runner"
	"snd/internal/store"
)

func main() {
	var (
		coordURL    = flag.String("coordinator", "http://localhost:8080", "coordinator base URL (a sndserve started with -coordinator)")
		name        = flag.String("name", hostnameOr("worker"), "worker display name (the coordinator makes it unique)")
		workers     = flag.Int("workers", 0, "trial execution goroutines per batch (0 = GOMAXPROCS)")
		storeURL    = flag.String("store", "mem://", "blob store for completed trials: mem://, file://dir, or s3://bucket/prefix; point the fleet and the server at the same URL to dedup trials fleet-wide")
		poll        = flag.Duration("poll", 500*time.Millisecond, "idle back-off between lease attempts")
		logFormat   = flag.String("logformat", obs.LogText, "log format: text or json")
		traceBuf    = flag.Int("tracebuf", trace.DefaultCapacity, "local span buffer capacity (0 disables tracing; traced batches ship their spans to the coordinator)")
		traceSample = flag.Int("tracesample", 0, "record a span for every Nth trial of a traced batch (0 = no per-trial spans)")
		traceJSONL  = flag.String("tracejsonl", "", "additionally append every completed span as a JSON line to this file")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sndworker:", err)
		os.Exit(2)
	}

	// The trial cache is the -store blob. A fleet sharing one file:// or
	// s3:// URL with the server shares one content-addressed trial space —
	// a cell computed anywhere is a cache hit everywhere.
	cache, err := store.Open(*storeURL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sndworker: -store:", err)
		os.Exit(2)
	}
	eng := runner.New(runner.Options{Workers: *workers, Cache: cache})

	// The worker's tracer is a staging buffer: spans recorded while a traced
	// batch executes (worker.batch, runner.cells, sampled trials) ship to
	// the coordinator with the results post, joining the sweep's trace there.
	var tracer *trace.Tracer
	if *traceBuf > 0 {
		topts := trace.Options{Capacity: *traceBuf, TrialSampling: *traceSample}
		if *traceJSONL != "" {
			f, err := os.OpenFile(*traceJSONL, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sndworker: -tracejsonl:", err)
				os.Exit(2)
			}
			defer f.Close()
			topts.Sink = f
		}
		tracer = trace.New(topts)
	}

	w := dist.NewWorker(dist.NewClient(*coordURL, nil), dist.WorkerOptions{
		Name:        *name,
		Experiments: exp.Names(),
		Poll:        *poll,
		Logger:      logger,
		Execute: func(ctx context.Context, b *dist.Batch) ([]runner.CellSample, error) {
			return exp.RunCells(ctx, eng, b.Experiment, b.Params, b.SweepID, b.Cells)
		},
	})

	// First signal: graceful drain (finish and report the in-flight batch).
	// Second signal: hard cancel (the coordinator re-queues on TTL expiry).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = trace.WithTracer(ctx, tracer)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		logger.Info("draining: finishing in-flight batch (signal again to abort)")
		w.StartDrain()
		<-sigc
		logger.Warn("aborting")
		cancel()
	}()

	logger.Info("sndworker starting", "coordinator", *coordURL, "name", *name,
		"workers", eng.Workers(), "store", store.Scheme(*storeURL))
	err = w.Run(ctx)
	batches, cells := w.Stats()
	logger.Info("sndworker exiting", "batches", batches, "cells", cells)
	if err != nil && err != context.Canceled {
		fmt.Fprintln(os.Stderr, "sndworker:", err)
		os.Exit(1)
	}
}

func hostnameOr(fallback string) string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return fallback
}
