// Command resilserverd runs the resilience-as-a-service HTTP daemon: a
// long-lived front end over the concurrent engine, with a named-database
// registry, a cross-request witness-IR cache, admission control, and
// graceful shutdown.
//
// Usage:
//
//	resilserverd [flags]
//
// Flags:
//
//	-addr :8080          listen address
//	-workers N           engine worker-pool size (default GOMAXPROCS)
//	-build-workers N     sharded witness-enumeration workers per IR build
//	                     (default min(4, GOMAXPROCS); 1 = sequential)
//	-portfolio           race exact vs SAT on NP-hard instances (default true)
//	-pprof               register net/http/pprof under /debug/pprof/
//	                     (off by default: the profiling surface exposes
//	                     heap and goroutine internals)
//	-max-inflight N      concurrently executing solver requests before
//	                     shedding with 429 (default 64)
//	-request-timeout D   default per-request wall-time budget; a request's
//	                     timeout_ms can only tighten it (default 30s)
//	-max-body BYTES      request-body cap, database uploads included
//	                     (default 32 MiB)
//	-grace D             shutdown grace period: time to let in-flight
//	                     requests finish after SIGINT/SIGTERM (default 10s)
//	-job-workers N       async-job executor goroutines (default 2)
//	-data-dir DIR        make state durable: journal the database registry
//	                     and job store to a snapshot+WAL store in DIR and
//	                     recover them on the next start (default: in-memory)
//	-fsync MODE          WAL durability with -data-dir: always | batch | off
//	                     (default batch — survives kill -9; a power failure
//	                     may lose the last ~2ms)
//	-snapshot-every N    compact the WAL into a snapshot every N journaled
//	                     records (default 4096; negative disables)
//
// Endpoints (see README.md for curl transcripts):
//
//	POST   /v1/tasks       generic dispatch: one api.Task envelope, all
//	                       kinds (classify, solve, enumerate,
//	                       responsibility, decide, verify_contingency,
//	                       watch); ?stream=ndjson streams results as found
//	POST   /v1/batch       many tasks on the worker pool; NDJSON streaming
//	                       emits each result in completion order
//	POST   /v1/jobs        async job submission (202 + job record)
//	GET    /v1/jobs        list jobs
//	GET    /v1/jobs/{id}   poll a job
//	DELETE /v1/jobs/{id}   cancel a queued/running job, drop a finished one
//	PUT    /v1/db/{name}   register a database from a JSON fact list;
//	                       answers the registration info, version included
//	PATCH  /v1/db/{name}   apply an atomic insert/delete batch; cached IRs
//	                       are delta-migrated and watchers notified
//	GET    /v1/db          list registered databases
//	GET    /v1/db/{name}   registration metadata
//	DELETE /v1/db/{name}   unregister
//	GET    /metrics        engine + server + job counters (JSON)
//	GET    /healthz        liveness; 503 while draining
//
// On SIGINT/SIGTERM the daemon stops accepting connections, fails its
// health checks, and gives in-flight requests the grace period to finish;
// whatever is still running then has its context cancelled, which the
// solvers observe through their cancellation polls.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
		portfolio    = flag.Bool("portfolio", true, "race exact vs SAT on NP-hard instances")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrently executing solver requests (0 = default 64)")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "default per-request wall-time budget (0 = none)")
		maxBody      = flag.Int64("max-body", 0, "request-body byte cap (0 = default 32 MiB)")
		grace        = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
		jobWorkers   = flag.Int("job-workers", 0, "async-job executor goroutines (0 = default 2)")
		drainDelay   = flag.Duration("drain-delay", 5*time.Second, "time between failing /healthz and closing the listener, so load balancers observe the 503 and stop routing here")
		buildWorkers = flag.Int("build-workers", 0, "sharded witness-enumeration workers per IR build (0 = min(4, GOMAXPROCS), 1 = sequential)")
		pprofOn      = flag.Bool("pprof", false, "register net/http/pprof handlers under /debug/pprof/")
		dataDir      = flag.String("data-dir", "", "durable-state directory: snapshot+WAL journal of databases and jobs, recovered on restart (empty = in-memory)")
		fsync        = flag.String("fsync", "batch", "WAL durability with -data-dir: always | batch | off")
		snapEvery    = flag.Int("snapshot-every", 0, "snapshot (and compact the WAL) every N journaled records (0 = default 4096, negative disables)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "resilserverd: unexpected arguments:", flag.Args())
		os.Exit(2)
	}

	srv, err := repro.OpenServer(repro.ServerConfig{
		Engine: repro.EngineConfig{
			Workers:      *workers,
			Portfolio:    *portfolio,
			BuildWorkers: *buildWorkers,
		},
		MaxInFlight:    *maxInflight,
		RequestTimeout: *reqTimeout,
		MaxBodyBytes:   *maxBody,
		JobWorkers:     *jobWorkers,
		DataDir:        *dataDir,
		Fsync:          *fsync,
		SnapshotEvery:  *snapEvery,
	})
	if err != nil {
		log.Fatalf("resilserverd: %v", err)
	}
	defer srv.Close() // stop async-job workers, snapshot + close the store

	if rec := srv.Recovery(); rec.Enabled {
		log.Printf("resilserverd: durable state in %s (fsync=%s); recovered %d databases, %d jobs (%d re-enqueued, %d interrupted) from snapshot seq=%d (loaded=%v) + %d WAL records (%d torn bytes truncated)",
			*dataDir, *fsync, rec.DBs, rec.Jobs, rec.JobsRequeued, rec.JobsInterrupted,
			rec.SnapshotSeq, rec.SnapshotLoaded, rec.WALRecords, rec.TornBytes)
	}

	// baseCtx is the ancestor of every request context: cancelling it
	// after the grace period aborts solver loops that outlived shutdown.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	httpSrv := &http.Server{
		Addr:        *addr,
		Handler:     withPProf(srv, *pprofOn),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("resilserverd listening on %s (workers=%d portfolio=%v max-inflight=%d request-timeout=%v)",
		*addr, *workers, *portfolio, *maxInflight, *reqTimeout)

	select {
	case err := <-errCh:
		log.Fatalf("resilserverd: %v", err)
	case <-sigCtx.Done():
	}

	log.Printf("resilserverd: signal received; failing health checks, draining for up to %v+%v", *drainDelay, *grace)
	srv.SetDraining(true)
	// Restore default signal handling so a second SIGINT/SIGTERM kills the
	// process immediately instead of waiting out the drain.
	stop()
	// Keep accepting (and serving) while load balancers notice the 503 and
	// route away; only then stop the listener.
	time.Sleep(*drainDelay)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("resilserverd: shutdown: %v", err)
	}
	// Anything still running after the grace period is cut off at the
	// context root; ListenAndServe has already returned ErrServerClosed.
	cancelBase()
	_ = httpSrv.Close()

	// Close explicitly (the deferred call becomes a no-op) so the
	// drain snapshot is on disk before the final store stats print.
	srv.Close()
	if ss := srv.StoreStats(); ss.Enabled {
		log.Printf("resilserverd: durable state drained; seq=%d appends=%d (%d bytes) fsyncs=%d snapshots=%d compacted=%d errors=%d",
			ss.Seq, ss.Appends, ss.AppendBytes, ss.Fsyncs, ss.Snapshots, ss.CompactedRecords, ss.Errors)
	}
	st := srv.Engine().Stats()
	log.Printf("resilserverd: stopped; solved=%d timeouts=%d ir-builds=%d (parallel=%d, %.1fms total) ir-cache-hits=%d",
		st.Solved, st.Timeouts, st.IRBuilds, st.ParallelIRBuilds,
		float64(st.IRBuildNs)/1e6, st.IRCacheHits)
}
