// Package server is the resilience-as-a-service layer: a long-running
// HTTP front end over the api.Session orchestrator, turning the one-shot
// solver stack into a stateful service.
//
// # Surfaces
//
// The primary surface is the versioned v1 task API: one generic dispatch
// endpoint (POST /v1/tasks) accepting the api.Task envelope for every
// task kind, a concurrent batch endpoint (POST /v1/batch), NDJSON
// streaming for batch, enumeration and watch responses, and an async job
// lifecycle (POST /v1/jobs, GET /v1/jobs/{id}, DELETE /v1/jobs/{id}).
// Database management lives at /v1/db/{name}: upload (PUT), inspect
// (GET), delete (DELETE), and in-place mutation (PATCH, a typed
// insert/delete batch applied atomically — see api.MutateRequest). A
// watch task (kind "watch", streamed) then follows ρ across mutations.
// Besides /v1 the route table mounts only GET /metrics and GET /healthz.
//
// # Request lifecycle
//
// Databases are uploaded once (PUT /v1/db/{name}), frozen, and registered
// under a name; tasks then arrive as small JSON bodies naming the
// database they target. Solver endpoints pass through admission control —
// a bounded in-flight slot pool that rejects excess load with 429 rather
// than queueing unboundedly — then run on the shared Session with a
// per-request deadline (the smaller of the task's timeout_ms and the
// server's configured default) plumbed down into the cancellable solvers.
//
// # Key invariants
//
//   - Registered databases are immutable: the Session freezes them at
//     upload and nothing on the serving path ever mutates one. A
//     re-upload installs a fresh database object, so in-flight requests
//     finish against the contents they resolved.
//   - The engine runs in NoClone mode, which enables its cross-request
//     witness-IR cache: concurrent and repeated requests against the same
//     (query class, database version) enumerate witnesses exactly once.
//   - Every solver endpoint is cancellable: client disconnects and
//     deadline expiries propagate through context into ctxpoll-polling
//     search loops. On streaming endpoints a dropped connection stops the
//     underlying search — the NDJSON writer runs under r.Context() and a
//     failed write aborts the emit chain.
//   - Errors are typed end to end: every non-2xx response carries an
//     api.ErrorBody whose code maps to exactly one HTTP status, admission
//     control's 429 included; context cancellation surfaces as
//     timeout/canceled codes, never a generic 500.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/engine"
	"repro/internal/store"
)

// Config tunes a Server. The zero value is usable: engine defaults,
// 64 in-flight requests, no default per-request budget, 32 MiB upload
// cap, 2 job workers.
type Config struct {
	// Engine configures the embedded solving engine (workers, portfolio,
	// cache sizes). NoClone is forced on by the Session: the registry owns
	// frozen databases, which is exactly the sharing mode NoClone exists
	// for.
	Engine engine.Config
	// MaxInFlight bounds concurrently executing solver requests (POST
	// /v1/tasks, POST /v1/batch and PATCH /v1/db/{name}). Excess requests
	// are rejected with 429, code overload, and a Retry-After header. <= 0
	// means the default 64.
	MaxInFlight int
	// RequestTimeout is the default per-request wall-time budget for
	// synchronous solver endpoints. A task's timeout_ms can only tighten
	// it. <= 0 means no server-side default. Async jobs are exempt: a job
	// runs until done, canceled, or its own timeout_ms expires.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (database uploads dominate).
	// <= 0 means the default 32 MiB.
	MaxBodyBytes int64
	// JobWorkers is the number of async-job executor goroutines; jobs
	// queue beyond it. 0 means the default 2; < 0 starts none, so jobs
	// stay queued forever — recovery tests use it to observe pre-run
	// state.
	JobWorkers int
	// JobQueue bounds queued-but-not-running jobs; submissions beyond it
	// are rejected with 429/overload. <= 0 means the default 64.
	JobQueue int
	// MaxJobs caps stored job records; finished jobs are evicted oldest
	// first to admit new submissions. <= 0 means the default 256.
	MaxJobs int
	// DataDir, when set, makes state durable: the database registry and
	// the job store are journaled to a snapshot+WAL store in this
	// directory and recovered on the next Open against it. Empty means
	// in-memory only (every prior release's behavior).
	DataDir string
	// Fsync selects the WAL durability policy when DataDir is set:
	// "always", "batch" (the default — kill -9 safe, power failure may
	// lose the last ~2ms), or "off". See internal/store.FsyncMode.
	Fsync string
	// SnapshotEvery, when DataDir is set, takes an automatic snapshot
	// (compacting the WAL) every that many journaled records. 0 means
	// the store's default (4096); < 0 disables automatic snapshots.
	SnapshotEvery int
}

const (
	defaultMaxInFlight  = 64
	defaultMaxBodyBytes = 32 << 20
	defaultJobWorkers   = 2
	defaultJobQueue     = 64
	defaultMaxJobs      = 256
)

// Server is the HTTP serving layer. Create with New, expose with Handler
// (or use it directly as an http.Handler), flip SetDraining(true) before
// shutdown so health checks start failing ahead of the listener, and call
// Close to stop the job workers.
type Server struct {
	cfg     Config
	sess    *api.Session
	jobs    *jobManager
	mux     *http.ServeMux
	durable *store.DiskStore // nil without DataDir

	// sem is the admission-control slot pool; a slot is held for the full
	// solver-endpoint lifetime (streaming responses included).
	sem chan struct{}

	start     time.Time
	draining  atomic.Bool
	closeOnce sync.Once
	recovery  RecoveryInfo

	requests  atomic.Int64 // solver requests admitted
	rejected  atomic.Int64 // solver requests refused with 429
	failures  atomic.Int64 // solver requests that returned 5xx
	mutations atomic.Int64 // PATCH batches applied successfully
}

// RecoveryInfo summarizes what Open recovered from the data directory;
// the daemon's startup line prints it and /metrics carries the counts.
type RecoveryInfo struct {
	// Enabled reports whether a durable store is attached at all.
	Enabled bool
	// SnapshotLoaded/SnapshotSeq describe the snapshot recovery started
	// from; WALRecords and TornBytes the log tail replayed over it.
	SnapshotLoaded bool
	SnapshotSeq    uint64
	WALRecords     int
	TornBytes      int64
	// DBs and Jobs are the recovered totals; JobsRequeued of those jobs
	// went back on the queue, JobsInterrupted were stamped
	// failed/restart.
	DBs             int
	Jobs            int
	JobsRequeued    int
	JobsInterrupted int
}

// New returns a Server over a fresh Session (engine + database registry).
// With Config.DataDir set it panics on a store-open failure; durable
// deployments should use Open and handle the error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("server: opening durable store: %v", err))
	}
	return s
}

// Open returns a Server over a fresh Session. When cfg.DataDir is set it
// opens (or creates) the snapshot+WAL store there, recovers the database
// registry and job store — replaying the WAL tail and truncating any
// torn final record — and journals every subsequent state change.
func Open(cfg Config) (*Server, error) {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.JobWorkers == 0 {
		cfg.JobWorkers = defaultJobWorkers
	}
	if cfg.JobQueue <= 0 {
		cfg.JobQueue = defaultJobQueue
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = defaultMaxJobs
	}

	var (
		durable *store.DiskStore
		rec     *store.Recovery
		sstore  api.Store
	)
	if cfg.DataDir != "" {
		mode, err := store.ParseFsyncMode(cfg.Fsync)
		if err != nil {
			return nil, err
		}
		durable, rec, err = store.Open(cfg.DataDir, store.Options{
			Fsync:         mode,
			SnapshotEvery: cfg.SnapshotEvery,
		})
		if err != nil {
			return nil, err
		}
		sstore = durable
	}

	sess := api.NewSession(api.Config{Engine: cfg.Engine, Store: sstore})
	var recoveredJobs []*api.Job
	var jobSeqFloor uint64
	info := RecoveryInfo{Enabled: durable != nil}
	if rec != nil {
		jobSeqFloor = rec.MaxJobSeq
		for _, d := range rec.DBs {
			if _, err := sess.RestoreDB(d.Name, d.Facts, d.Version); err != nil {
				durable.Close()
				return nil, fmt.Errorf("server: restoring database %q: %w", d.Name, err)
			}
		}
		recoveredJobs = rec.Jobs
		info.SnapshotLoaded = rec.Stats.SnapshotLoaded
		info.SnapshotSeq = rec.Stats.SnapshotSeq
		info.WALRecords = rec.Stats.WALRecords
		info.TornBytes = rec.Stats.TornBytes
		info.DBs = len(rec.DBs)
		info.Jobs = len(rec.Jobs)
	}

	workers := cfg.JobWorkers
	if workers < 0 {
		workers = 0
	}
	s := &Server{
		cfg:     cfg,
		sess:    sess,
		jobs:    newJobManager(sess, sstore, workers, cfg.JobQueue, cfg.MaxJobs, recoveredJobs, jobSeqFloor),
		mux:     http.NewServeMux(),
		durable: durable,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		start:   time.Now(),
	}
	info.JobsRequeued = s.jobs.requeued
	info.JobsInterrupted = s.jobs.interrupted
	s.recovery = info
	s.routes()
	return s, nil
}

// Recovery reports what Open recovered (the zero RecoveryInfo without a
// data directory).
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// StoreStats snapshots the durable store's counters; Enabled is false
// without a data directory.
func (s *Server) StoreStats() store.Stats {
	if s.durable == nil {
		return store.Stats{}
	}
	return s.durable.Stats()
}

// Session exposes the embedded orchestrator to in-process callers such as
// tests and the daemon's logging.
func (s *Server) Session() *api.Session { return s.sess }

// Engine exposes the embedded engine (stats, direct batch access).
func (s *Server) Engine() *engine.Engine { return s.sess.Engine() }

// Close stops the async-job workers, cancelling any running job. It does
// not affect synchronous requests in flight. With a durable store it
// then snapshots the final state (so the next boot replays an empty WAL
// tail) and closes the store; queued jobs stay journaled queued and
// re-enqueue on the next Open. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.jobs.close()
		if s.durable != nil {
			s.durable.Snapshot() //nolint:errcheck // WAL still holds the state; counted in store errors
			s.durable.Close()    //nolint:errcheck // nothing left to do on the way out
		}
	})
}

// Handler returns the route table as an http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes *Server an http.Handler itself.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SetDraining flips the health signal: while draining, /healthz returns
// 503 so load balancers stop routing here, while already-accepted requests
// keep completing. The daemon sets it on SIGTERM before http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func (s *Server) routes() {
	// v1: the versioned task API. One generic dispatch endpoint, batch,
	// async jobs, and database management.
	s.mux.HandleFunc("POST /v1/tasks", s.admitted(s.handleV1Task))
	s.mux.HandleFunc("POST /v1/batch", s.admitted(s.handleV1Batch))
	s.mux.HandleFunc("POST /v1/jobs", s.handleV1SubmitJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleV1ListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleV1GetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleV1CancelJob)
	s.mux.HandleFunc("PUT /v1/db/{name}", s.handleV1PutDB)
	s.mux.HandleFunc("PATCH /v1/db/{name}", s.admitted(s.handleV1MutateDB))
	s.mux.HandleFunc("GET /v1/db/{name}", s.handleV1GetDB)
	s.mux.HandleFunc("DELETE /v1/db/{name}", s.handleV1DeleteDB)
	s.mux.HandleFunc("GET /v1/db", s.handleListDBs)

	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// admitted wraps a solver endpoint with admission control: acquire an
// in-flight slot without blocking, or shed the request with 429. Shedding
// instead of queueing keeps tail latency bounded under overload — the
// client's retry policy, not an unbounded server queue, absorbs bursts.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.rejected.Add(1)
			s.writeError(w, api.Errorf(api.CodeOverload, "server at capacity (%d requests in flight)", cap(s.sem)))
			return
		}
		s.requests.Add(1)
		h(w, r)
	}
}

// requestCtx derives the request's working context from r.Context() — so
// client disconnects cancel everything downstream — bounded by the
// server's default budget. Task-level timeout_ms is applied later by the
// Session and can only tighten this.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	budget := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; budget <= 0 || t < budget {
			budget = t
		}
	}
	if budget <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), budget)
}

// decode reads a JSON request body strictly, capped at MaxBodyBytes,
// answering a bad_request error on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.writeError(w, api.Errorf(api.CodeBadRequest, "bad request body: %v", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) //nolint:errcheck // nothing to do about a failed write
}

// writeError emits the typed error body with the code's canonical status,
// and a Retry-After header on 429.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	ae := api.Wrap(err)
	status := ae.HTTPStatus()
	if status >= 500 {
		s.failures.Add(1)
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, api.ErrorBody{Error: ae})
}

// putDBRequest is the body of PUT /v1/db/{name}.
type putDBRequest struct {
	// Facts holds one fact per entry, e.g. "R(1,2)". Blank entries are
	// rejected (unlike fact files there is no comment syntax here).
	Facts []string `json:"facts"`
}

func (s *Server) handleV1PutDB(w http.ResponseWriter, r *http.Request) {
	var req putDBRequest
	if !s.decode(w, r, &req) {
		return
	}
	info, err := s.sess.RegisterFacts(r.PathValue("name"), req.Facts)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleV1MutateDB applies a typed insert/delete batch to a registered
// database: PATCH /v1/db/{name} with an api.MutateRequest body. The batch
// is atomic — any bad mutation rejects it whole with a typed error naming
// the offending index — and a success answers the post-batch DBInfo (new
// version included) plus the applied count. The endpoint holds an
// admission slot: applying a batch delta-migrates cached IRs, which is
// solver-adjacent work.
func (s *Server) handleV1MutateDB(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.MutateRequest
	if !s.decode(w, r, &req) {
		return
	}
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	info, err := s.sess.MutateDB(ctx, name, req.Mutations)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.mutations.Add(1)
	writeJSON(w, http.StatusOK, api.MutateResponse{DBInfo: info, Applied: len(req.Mutations)})
}

func (s *Server) handleV1GetDB(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, ok := s.sess.Info(name)
	if !ok {
		s.writeError(w, api.Errorf(api.CodeUnknownDB, "no database %q registered", name))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleV1DeleteDB(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	existed, err := s.sess.DropDB(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if !existed {
		s.writeError(w, api.Errorf(api.CodeUnknownDB, "no database %q registered", name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListDBs(w http.ResponseWriter, r *http.Request) {
	type listResponse struct {
		Databases []api.DBInfo `json:"databases"`
	}
	var resp listResponse
	for _, name := range s.sess.DBNames() {
		if info, ok := s.sess.Info(name); ok {
			resp.Databases = append(resp.Databases, info)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// metricsResponse is the body of GET /metrics: server counters plus a
// snapshot of engine.Stats in stable snake_case keys.
type metricsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Databases     int     `json:"databases"`

	InFlight    int   `json:"in_flight"`
	MaxInFlight int   `json:"max_in_flight"`
	Requests    int64 `json:"requests"`
	Rejected    int64 `json:"rejected"`
	Failures    int64 `json:"failures"`
	Mutations   int64 `json:"mutations"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsActive    int   `json:"jobs_active"`
	JobsDone      int64 `json:"jobs_done"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCanceled  int64 `json:"jobs_canceled"`

	StoreEnabled     bool  `json:"store_enabled"`
	StoreSeq         int64 `json:"store_seq"`
	StoreWALRecords  int64 `json:"store_wal_records"`
	StoreAppends     int64 `json:"store_appends"`
	StoreAppendBytes int64 `json:"store_append_bytes"`
	StoreFsyncs      int64 `json:"store_fsyncs"`
	StoreSnapshots   int64 `json:"store_snapshots"`
	StoreCompacted   int64 `json:"store_compacted_records"`
	// StoreWedged reports the store hit an unrecoverable write failure
	// and is rejecting all state changes — page on this.
	StoreWedged bool `json:"store_wedged"`
	// StoreErrors sums the store's own error counter with the job
	// manager's best-effort journal failures.
	StoreErrors        int64 `json:"store_errors"`
	RecoveredDBs       int   `json:"recovered_dbs"`
	RecoveredJobs      int   `json:"recovered_jobs"`
	JobsRequeued       int   `json:"jobs_requeued"`
	JobsInterrupted    int   `json:"jobs_interrupted"`
	RecoveredWALRecs   int64 `json:"recovered_wal_records"`
	RecoveredTornBytes int64 `json:"recovered_torn_bytes"`

	Solved             int64 `json:"solved"`
	Timeouts           int64 `json:"timeouts"`
	ClassCacheHits     int64 `json:"class_cache_hits"`
	ClassCacheMisses   int64 `json:"class_cache_misses"`
	PortfolioExactWins int64 `json:"portfolio_exact_wins"`
	PortfolioSATWins   int64 `json:"portfolio_sat_wins"`
	IRBuilds           int64 `json:"ir_builds"`
	IRBuildNs          int64 `json:"ir_build_ns"`
	ParallelIRBuilds   int64 `json:"parallel_ir_builds"`
	IRBuildShards      int64 `json:"ir_build_shards"`
	SolverRuns         int64 `json:"solver_runs"`
	IRCacheHits        int64 `json:"ir_cache_hits"`
	IRCacheMisses      int64 `json:"ir_cache_misses"`
	IRMigrations       int64 `json:"ir_migrations"`
	CompCacheHits      int64 `json:"comp_cache_hits"`
	CompCacheMisses    int64 `json:"comp_cache_misses"`

	KernelForcedTuples      int64 `json:"kernel_forced_tuples"`
	KernelDominatedTuples   int64 `json:"kernel_dominated_tuples"`
	ComponentsSolved        int64 `json:"components_solved"`
	MultiComponentInstances int64 `json:"multi_component_instances"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Engine().Stats()
	js := s.jobs.stats()
	ss := s.StoreStats()
	writeJSON(w, http.StatusOK, metricsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		Databases:     len(s.sess.DBNames()),

		InFlight:    len(s.sem),
		MaxInFlight: cap(s.sem),
		Requests:    s.requests.Load(),
		Rejected:    s.rejected.Load(),
		Failures:    s.failures.Load(),
		Mutations:   s.mutations.Load(),

		JobsSubmitted: js.submitted,
		JobsActive:    js.active,
		JobsDone:      js.done,
		JobsFailed:    js.failed,
		JobsCanceled:  js.canceled,

		StoreEnabled:       ss.Enabled,
		StoreSeq:           int64(ss.Seq),
		StoreWALRecords:    ss.WALRecords,
		StoreAppends:       ss.Appends,
		StoreAppendBytes:   ss.AppendBytes,
		StoreFsyncs:        ss.Fsyncs,
		StoreSnapshots:     ss.Snapshots,
		StoreCompacted:     ss.CompactedRecords,
		StoreWedged:        ss.Wedged,
		StoreErrors:        ss.Errors + js.storeErrs,
		RecoveredDBs:       s.recovery.DBs,
		RecoveredJobs:      s.recovery.Jobs,
		JobsRequeued:       js.requeued,
		JobsInterrupted:    js.interrupted,
		RecoveredWALRecs:   int64(s.recovery.WALRecords),
		RecoveredTornBytes: s.recovery.TornBytes,

		Solved:             st.Solved,
		Timeouts:           st.Timeouts,
		ClassCacheHits:     st.CacheHits,
		ClassCacheMisses:   st.CacheMisses,
		PortfolioExactWins: st.PortfolioExactWins,
		PortfolioSATWins:   st.PortfolioSATWins,
		IRBuilds:           st.IRBuilds,
		IRBuildNs:          st.IRBuildNs,
		ParallelIRBuilds:   st.ParallelIRBuilds,
		IRBuildShards:      st.IRBuildShards,
		SolverRuns:         st.SolverRuns,
		IRCacheHits:        st.IRCacheHits,
		IRCacheMisses:      st.IRCacheMisses,
		IRMigrations:       st.IRMigrations,
		CompCacheHits:      st.CompCacheHits,
		CompCacheMisses:    st.CompCacheMisses,

		KernelForcedTuples:      st.KernelForcedTuples,
		KernelDominatedTuples:   st.KernelDominatedTuples,
		ComponentsSolved:        st.ComponentsSolved,
		MultiComponentInstances: st.MultiComponentInstances,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
