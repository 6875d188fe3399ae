// Command sndserve exposes the internal/exp experiment registry — the
// same catalog sndfig dispatches through — as an HTTP job API.
// Jobs execute on one shared internal/runner engine, so trial
// concurrency stays bounded regardless of how many jobs are submitted,
// and completed trials are memoized: identical jobs are answered from
// the job table, and overlapping sweeps share cached trial results.
//
//	sndserve -addr :8080 -workers 8 -store file:///var/cache/snd
//
// API (versioned under /v1):
//
//	POST   /v1/jobs         {"experiment":"fig3","params":{"Trials":10,"Seed":1},"timeout":"90s"}
//	GET    /v1/jobs         paginated listing {"jobs":[...],"next_cursor":...};
//	                        ?limit= and ?cursor= page, ?status= and ?exp=
//	                        filter; results elided
//	GET    /v1/jobs/{id}    one job: status, live progress {done,total,dropped},
//	                        created_at/started_at/finished_at timestamps,
//	                        store scheme, result when done
//	DELETE /v1/jobs/{id}    cancel a queued or running job
//	GET    /v1/experiments  full catalog: name, description, params schema
//	                        (field name/type/default), and defaults per entry
//	GET    /v1/metrics      Prometheus text exposition: engine histograms
//	                        (trial latency, queue wait), cache hit/miss and job
//	                        counters, HTTP request metrics
//	GET    /v1/debug/traces flight recorder: recent trace summaries and
//	                        slow-trial exemplars; ?job={id} and ?trace={id}
//	                        filters (404 tracing_disabled with -tracebuf 0)
//	GET    /debug/pprof     runtime profiles (only with -pprof; unversioned)
//	POST   /v1/dist/{register,lease,renew,results}
//	GET    /v1/dist/status  distributed-sweep lease protocol (only with
//	                        -coordinator; see internal/dist and DESIGN.md)
//
// Every 4xx/5xx response is a typed envelope
// {"error":{"code","message","field"}}; the code table is in DESIGN.md.
//
// Durability and tenancy (all opt-in):
//
//	-store URL      trial-result blob store (mem:// by default, file://dir,
//	                s3://bucket/prefix?endpoint=&region=); every process
//	                sharing the URL shares one content-addressed cache
//	-jobstore PATH  append-only JSONL job log; on boot, finished jobs are
//	                restored as history and interrupted jobs re-run
//	-apikeys FILE   key:name:rate lines; /v1/jobs* writes then require
//	                Authorization: Bearer <key> and are rate limited per
//	                client (429 + Retry-After when the bucket is empty)
//
// Jobs move queued → running → done | failed | cancelled. The optional
// "timeout" field bounds a job's run; expiry marks it failed with a
// deadline error. At most -maxjobs jobs are admitted at once (429 beyond
// that), finished jobs are evicted after -jobttl, and SIGINT/SIGTERM
// triggers a graceful drain: in-flight jobs finish (up to -drain), new
// submissions get 503, then the process exits.
//
// Request and job-lifecycle logs are structured (log/slog); -logformat
// selects text (default) or json.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"snd/internal/dist"
	"snd/internal/obs"
	"snd/internal/obs/trace"
	"snd/internal/runner"
	"snd/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "trial execution workers (0 = GOMAXPROCS; with -coordinator, negative disables loopback execution so only the worker fleet runs sweeps)")
		storeURL    = flag.String("store", "mem://", "blob store for completed trials: mem://, file://dir, or s3://bucket/prefix (see README)")
		jobStore    = flag.String("jobstore", "", "append-only job log (JSONL WAL); jobs survive restarts and interrupted jobs resume on boot")
		apiKeys     = flag.String("apikeys", "", "API key file of key:name:rate lines; enables Authorization: Bearer + per-client rate limits on /v1/jobs* writes")
		maxJobs     = flag.Int("maxjobs", DefaultMaxInFlight, "max queued+running jobs before submissions get 429")
		jobTTL      = flag.Duration("jobttl", DefaultJobTTL, "how long finished jobs stay queryable (negative = forever)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget before in-flight jobs are cancelled")
		logFormat   = flag.String("logformat", obs.LogText, "log format: text or json")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof")
		coord       = flag.Bool("coordinator", false, "host a distributed-sweep coordinator behind /v1/dist/* for sndworker fleets")
		batchSize   = flag.Int("batch", dist.DefaultBatchSize, "coordinator: sweep cells per leased batch")
		leaseTTL    = flag.Duration("lease", dist.DefaultLeaseTTL, "coordinator: lease duration before an unrenewed batch is re-queued")
		traceBuf    = flag.Int("tracebuf", trace.DefaultCapacity, "flight-recorder capacity in completed spans (0 disables tracing)")
		traceSample = flag.Int("tracesample", 0, "record a span for every Nth trial of a traced sweep (0 = no per-trial spans)")
		traceJSONL  = flag.String("tracejsonl", "", "additionally append every completed span as a JSON line to this file")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sndserve:", err)
		os.Exit(2)
	}

	// Tracing is on by default with an in-memory ring only; spans cost
	// nothing durable unless -tracejsonl names a file. -tracebuf 0 turns the
	// whole subsystem off (every span handle in the stack becomes nil).
	var tracer *trace.Tracer
	if *traceBuf > 0 {
		topts := trace.Options{Capacity: *traceBuf, TrialSampling: *traceSample}
		if *traceJSONL != "" {
			f, err := os.OpenFile(*traceJSONL, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sndserve: -tracejsonl:", err)
				os.Exit(2)
			}
			defer f.Close()
			topts.Sink = f
		}
		tracer = trace.New(topts)
	}

	reg := obs.NewRegistry()
	// The trial cache is the -store blob itself: with file:// or s3://,
	// completed trials dedup across restarts and across every process
	// sharing the store URL.
	blob, err := store.Open(*storeURL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sndserve: -store:", err)
		os.Exit(2)
	}
	storeScheme := store.Scheme(*storeURL)
	cache := store.Instrument(blob, storeScheme, reg)

	var jobs *store.WAL
	if *jobStore != "" {
		if jobs, err = store.OpenWAL(*jobStore); err != nil {
			fmt.Fprintln(os.Stderr, "sndserve: -jobstore:", err)
			os.Exit(2)
		}
		defer jobs.Close()
	}

	var keys *Keyring
	if *apiKeys != "" {
		k, err := LoadKeyring(*apiKeys)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sndserve: -apikeys:", err)
			os.Exit(2)
		}
		keys = k
	}

	// With -coordinator, the coordinator shares the engine's metrics
	// registry (one /v1/metrics exposition) and becomes the engine's sweep
	// backend: every distributable sweep goes through the lease table, and
	// with no workers attached its loopback executors reproduce plain
	// local execution exactly.
	var coordinator *dist.Coordinator
	var backend runner.Backend
	if *coord {
		coordinator = dist.NewCoordinator(dist.Options{
			BatchSize:    *batchSize,
			LeaseTTL:     *leaseTTL,
			LocalWorkers: *workers,
			Registry:     reg,
			Logger:       logger,
		})
		backend = coordinator
	}
	eng := runner.New(runner.Options{Workers: *workers, Cache: cache, Registry: reg, Backend: backend})

	srvImpl, mux := NewServer(eng, Config{
		MaxInFlight: *maxJobs,
		JobTTL:      *jobTTL,
		Logger:      logger,
		Pprof:       *pprofOn,
		Coordinator: coordinator,
		Tracer:      tracer,
		Jobs:        jobs,
		StoreScheme: storeScheme,
		Keys:        keys,
	})
	// Replay the job log before the listener opens: finished jobs return
	// as history, interrupted jobs re-queue and run again (hitting the
	// persistent trial cache for everything already computed).
	if resumed, restored, err := srvImpl.Recover(); err != nil {
		fmt.Fprintln(os.Stderr, "sndserve: -jobstore recovery:", err)
		os.Exit(2)
	} else if resumed+restored > 0 {
		logger.Info("recovered job table", "resumed", resumed, "restored", restored)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("sndserve listening",
			"addr", *addr, "workers", eng.Workers(), "store", storeScheme,
			"pprof", *pprofOn, "coordinator", *coord)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "sndserve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills immediately
		logger.Info("shutting down", "drain_budget", *drain)
		if coordinator != nil {
			// Stop granting remote leases first; loopback execution keeps
			// draining in-flight jobs below.
			coordinator.Drain()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Stop accepting connections first, then drain jobs. Jobs still
		// running when the drain budget expires are cancelled and exit
		// cooperatively via the engine's cancellation path.
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Error("http shutdown", "err", err)
		}
		if err := srvImpl.Shutdown(shutdownCtx); err != nil {
			logger.Warn("job drain incomplete, cancelled remaining jobs", "err", err)
		}
		logger.Info("shutdown complete")
	}
}
