package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/resilience"
	"repro/internal/witset"
)

// Instance is one (query, database) resilience problem in a batch. ID is
// echoed in the corresponding BatchResult so callers can correlate without
// relying on ordering (results are, however, index-aligned with inputs).
type Instance struct {
	ID    string
	Query *cq.Query
	DB    *db.Database
}

// BatchResult is the outcome of one Instance.
type BatchResult struct {
	// ID and Index identify the input instance (Index into the slice
	// passed to SolveBatch).
	ID    string
	Index int
	// Res is the resilience result; nil when Err is non-nil.
	Res *resilience.Result
	// Classification is the (possibly cached) complexity verdict for the
	// instance's query. It is shared across instances of the same query
	// shape and must be treated as read-only.
	Classification *core.Classification
	// Err is resilience.ErrUnbreakable, a context error (cancelled /
	// deadline exceeded), or a solver error.
	Err error
	// Elapsed is the wall time spent on this instance.
	Elapsed time.Duration
	// CacheHit reports whether the classification came from the cache.
	CacheHit bool
}

// Config tunes an Engine. The zero value is usable: GOMAXPROCS workers, no
// per-instance timeout, portfolio off, defensive cloning on.
type Config struct {
	// Workers is the worker-pool size for SolveBatch; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Timeout, when positive, bounds the wall time of each instance; an
	// instance exceeding it fails with context.DeadlineExceeded while the
	// rest of the batch proceeds.
	Timeout time.Duration
	// Portfolio races the exact solver against SAT binary search on
	// NP-hard (and unclassified) instances, taking the first finisher.
	// Instances go through the kernel+decompose pipeline first, and each
	// connected component of the witness hypergraph is raced independently.
	Portfolio bool
	// BuildWorkers bounds the sharded witness-enumeration pool used when
	// the engine constructs a witness IR (witset.BuildWith): the first join
	// step's candidate tuples are partitioned across this many goroutines,
	// with a deterministic merge keeping the result identical to a
	// sequential build. <= 0 means min(4, GOMAXPROCS); 1 forces sequential
	// builds.
	BuildWorkers int
	// ComponentWorkers bounds the intra-instance worker pool that solves
	// the connected components of one instance's witness hypergraph in
	// parallel on the portfolio path. <= 0 means min(4, GOMAXPROCS), a
	// deliberately small default because SolveBatch already parallelizes
	// across instances. Each in-flight component additionally runs its two
	// racer goroutines.
	ComponentWorkers int
	// CacheSize caps the classification cache (0 = default 1024).
	CacheSize int
	// IRCacheSize caps the cross-request witness-IR cache (0 = default
	// 256). The IR cache is only consulted under NoClone, because cloning
	// gives every instance a fresh database identity that can never hit.
	IRCacheSize int
	// CompCacheSize caps the component-result cache (0 = default 4096),
	// which remembers solved kernel components by content fingerprint so
	// delta-maintained mutations re-solve only the components they dirtied.
	// Weighted results share the cap and are evicted first. Like the IR
	// cache it is only consulted under NoClone.
	CompCacheSize int
	// NoClone skips the defensive per-instance database clone. It is the
	// serving-layer mode: callers pass long-lived (typically frozen)
	// databases, which makes the cross-request IR cache effective — the
	// cache keys on database identity and version, so it needs the caller's
	// own *db.Database, not a per-instance copy. The engine itself clones
	// around the one PTIME solver that temporarily deletes tuples
	// (AlgPerm3Flow), so under NoClone the caller's databases are never
	// mutated; the caller must still tolerate index-warming (Freeze) on
	// the databases it passes in, and must not mutate them concurrently
	// with in-flight solves.
	NoClone bool
}

// Engine is a reusable concurrent resilience solver. It is safe for use by
// multiple goroutines; the classification cache is shared across calls, so
// a long-lived Engine amortizes classification over its whole lifetime.
type Engine struct {
	cfg   Config
	cache *classCache
	irs   *irCache
	comps *compCache

	solved             atomic.Int64
	timeouts           atomic.Int64
	portfolioExactWins atomic.Int64
	portfolioSATWins   atomic.Int64
	irBuilds           atomic.Int64
	irBuildNs          atomic.Int64
	parallelIRBuilds   atomic.Int64
	irBuildShards      atomic.Int64
	solverRuns         atomic.Int64
	kernelForced       atomic.Int64
	kernelDominated    atomic.Int64
	componentsSolved   atomic.Int64
	multiComponent     atomic.Int64
	irMigrations       atomic.Int64
}

// Stats is a snapshot of an Engine's counters.
type Stats struct {
	// Solved counts instances that produced a result or a definite
	// ErrUnbreakable (i.e. everything except context failures).
	Solved int64
	// Timeouts counts instances that hit the per-instance deadline.
	Timeouts int64
	// CacheHits / CacheMisses count classification cache outcomes.
	CacheHits   int64
	CacheMisses int64
	// PortfolioExactWins / PortfolioSATWins count which racer finished
	// first on portfolio-solved components.
	PortfolioExactWins int64
	PortfolioSATWins   int64
	// IRBuilds counts witness-hypergraph constructions actually performed
	// for exact-path components, and SolverRuns the solver invocations over
	// them. One portfolio-raced hypergraph component = two solver runs (the
	// enumerate-once invariant is IRBuilds == instances raced, not one per
	// run: SolverRuns == 2×ComponentsSolved on a pure portfolio workload);
	// without the portfolio each solved component is one run. Under
	// NoClone, IR-cache hits reuse an earlier build, so IRBuilds counts
	// misses only, and component-cache hits skip solver runs entirely.
	IRBuilds   int64
	SolverRuns int64
	// IRBuildNs is the cumulative wall time spent constructing witness IRs
	// (the polynomial enumeration side), in nanoseconds. With IRBuilds it
	// gives the average build latency the join planner and the sharded
	// enumeration are optimising.
	IRBuildNs int64
	// ParallelIRBuilds counts the IR constructions that ran sharded
	// (more than one enumeration worker), and IRBuildShards the total
	// shards across them — IRBuildShards/ParallelIRBuilds is the average
	// effective fan-out, which drops below Config.BuildWorkers when first-
	// step candidate lists are too short to split.
	ParallelIRBuilds int64
	IRBuildShards    int64
	// IRMigrations counts cached IRs carried across a database mutation by
	// delta maintenance (Engine.MigrateIRs) instead of being rebuilt from
	// scratch on the next request.
	IRMigrations int64
	// KernelForcedTuples / KernelDominatedTuples count the work done by the
	// instance-level kernelization on exact-path solves: tuples forced into
	// every minimum contingency set by unit witnesses, and tuples dropped
	// because a co-occurring tuple hits a superset of their witnesses.
	KernelForcedTuples    int64
	KernelDominatedTuples int64
	// ComponentsSolved counts connected components of witness hypergraphs
	// solved on the exact path, and MultiComponentInstances the instances
	// whose hypergraph split into more than one component (the instances
	// where the decompose pipeline turns one big search into several small
	// parallel ones).
	ComponentsSolved        int64
	MultiComponentInstances int64
	// IRCacheHits / IRCacheMisses count cross-request IR cache outcomes
	// (always zero unless Config.NoClone enables the cache). A concurrent
	// burst of identical requests counts one miss (the elected builder) and
	// a hit per waiter.
	IRCacheHits   int64
	IRCacheMisses int64
	// CompCacheHits / CompCacheMisses count component-result cache
	// outcomes (always zero unless Config.NoClone enables the cache). A
	// hit means a kernel component was answered from a previous solve —
	// after a mutation, hits are exactly the components the delta did not
	// dirty.
	CompCacheHits   int64
	CompCacheMisses int64
}

// New returns an Engine with the given configuration.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:   cfg,
		cache: newClassCache(cfg.CacheSize),
		irs:   newIRCache(cfg.IRCacheSize),
		comps: newCompCache(cfg.CompCacheSize),
	}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	hits, misses := e.cache.stats()
	irHits, irMisses := e.irs.stats()
	compHits, compMisses := e.comps.stats()
	return Stats{
		Solved:             e.solved.Load(),
		Timeouts:           e.timeouts.Load(),
		CacheHits:          hits,
		CacheMisses:        misses,
		PortfolioExactWins: e.portfolioExactWins.Load(),
		PortfolioSATWins:   e.portfolioSATWins.Load(),
		IRBuilds:           e.irBuilds.Load(),
		SolverRuns:         e.solverRuns.Load(),
		IRBuildNs:          e.irBuildNs.Load(),
		ParallelIRBuilds:   e.parallelIRBuilds.Load(),
		IRBuildShards:      e.irBuildShards.Load(),
		IRMigrations:       e.irMigrations.Load(),
		IRCacheHits:        irHits,
		IRCacheMisses:      irMisses,
		CompCacheHits:      compHits,
		CompCacheMisses:    compMisses,

		KernelForcedTuples:      e.kernelForced.Load(),
		KernelDominatedTuples:   e.kernelDominated.Load(),
		ComponentsSolved:        e.componentsSolved.Load(),
		MultiComponentInstances: e.multiComponent.Load(),
	}
}

// Workers reports the effective worker-pool size (Config.Workers, or
// GOMAXPROCS when unset). Callers that fan work out around the engine —
// the Session's task batches — size their pools to match.
func (e *Engine) Workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (e *Engine) componentWorkers() int {
	if e.cfg.ComponentWorkers > 0 {
		return e.cfg.ComponentWorkers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	return w
}

func (e *Engine) buildWorkers() int {
	if e.cfg.BuildWorkers > 0 {
		return e.cfg.BuildWorkers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	return w
}

// SolveBatch solves every instance concurrently on the engine's worker
// pool and returns results index-aligned with insts. It always returns a
// full-length slice: when ctx is cancelled mid-batch, instances already
// finished keep their results and the remainder fail fast with ctx.Err(),
// so callers get the partial work that was done rather than losing the
// batch.
func (e *Engine) SolveBatch(ctx context.Context, insts []Instance) []BatchResult {
	out := make([]BatchResult, len(insts))
	if len(insts) == 0 {
		return out
	}
	workers := e.Workers()
	if workers > len(insts) {
		workers = len(insts)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = e.solveInstance(ctx, i, insts[i])
			}
		}()
	}
	for i := range insts {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// Solve answers a single instance through the engine (classification
// cache, optional timeout and portfolio). It is repro.Resilience with the
// engine's machinery behind it.
func (e *Engine) Solve(ctx context.Context, q *cq.Query, d *db.Database) (*resilience.Result, *core.Classification, error) {
	r := e.SolveOne(ctx, Instance{Query: q, DB: d})
	return r.Res, r.Classification, r.Err
}

// SolveOne answers a single instance and returns the full BatchResult —
// including CacheHit and Elapsed — which is what per-request callers like
// the HTTP serving layer report back to clients.
func (e *Engine) SolveOne(ctx context.Context, inst Instance) BatchResult {
	return e.solveInstance(ctx, 0, inst)
}

func (e *Engine) solveInstance(ctx context.Context, i int, inst Instance) BatchResult {
	start := time.Now()
	br := BatchResult{ID: inst.ID, Index: i}
	if err := ctx.Err(); err != nil {
		// Batch cancelled before this instance started: fail fast so the
		// caller gets partial results promptly.
		br.Err = err
		return br
	}
	ictx := ctx
	if e.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ictx, cancel = context.WithTimeout(ctx, e.cfg.Timeout)
		defer cancel()
	}
	br.Classification, br.CacheHit = e.cache.classify(inst.Query)
	d := inst.DB
	if !e.cfg.NoClone {
		d = d.Clone()
	}
	br.Res, br.Err = e.solveClassified(ictx, br.Classification, d)
	br.Elapsed = time.Since(start)
	switch br.Err {
	case nil, resilience.ErrUnbreakable:
		e.solved.Add(1)
	case context.DeadlineExceeded:
		e.timeouts.Add(1)
	}
	return br
}

// solveClassified is resilience.SolveClassifiedWith (the Lemma 14 minimum
// over connected components) with the engine's component solver, which
// routes exact-solver components through the portfolio when enabled.
func (e *Engine) solveClassified(ctx context.Context, cl *core.Classification, d *db.Database) (*resilience.Result, error) {
	return resilience.SolveClassifiedWith(ctx, cl, d, e.solveComponent)
}

func (e *Engine) solveComponent(ctx context.Context, cl *core.Classification, d *db.Database) (*resilience.Result, error) {
	if cl.Algorithm == core.AlgExact {
		inst, err := e.InstanceFor(ctx, cl.Normalized, d)
		if err != nil {
			return nil, err
		}
		method := "exact"
		if e.cfg.Portfolio {
			method = "portfolio/exact"
		}
		if inst.Unbreakable() {
			return nil, resilience.ErrUnbreakable
		}
		if inst.NumWitnesses() == 0 {
			return &resilience.Result{Rho: 0, Method: method, Witnesses: 0}, nil
		}
		res, err := e.pipelineOnInstance(ctx, inst, e.cfg.Portfolio)
		if err != nil {
			return nil, err
		}
		return &resilience.Result{Rho: int(res.Cost), ContingencySet: res.ContingencySet, Method: res.Method, Witnesses: res.Witnesses}, nil
	}
	if e.cfg.NoClone && cl.Algorithm == core.AlgPerm3Flow {
		// The one PTIME solver that temporarily deletes tuples. Under
		// NoClone the database may be shared by concurrent requests, so
		// give this solver a private copy and keep the caller's pristine.
		d = d.Clone()
	}
	return resilience.SolveClassifiedCtx(ctx, cl, d)
}

// SolveWeightedInstance computes ρ_w over a (typically weighted) witness
// IR through the same pipeline as the cardinality solver, component cache
// and portfolio race included; only the method string differs, prefixed
// with "weighted-". Classification is bypassed: the PTIME specializations
// answer only the cardinality question.
func (e *Engine) SolveWeightedInstance(ctx context.Context, inst *witset.Instance) (*resilience.WeightedResult, error) {
	if inst.Unbreakable() {
		return nil, resilience.ErrUnbreakable
	}
	res, err := e.pipelineOnInstance(ctx, inst, e.cfg.Portfolio)
	if err != nil {
		return nil, err
	}
	res.Method = "weighted-" + res.Method
	return res, nil
}

// TopKResponsibility ranks the k most responsible tuples of (q, d) off the
// engine's shared IR: the same cached instance that serves solve, enumerate
// and responsibility traffic backs the whole ranking, and the per-component
// minima inside it are solved once for all tuples.
func (e *Engine) TopKResponsibility(ctx context.Context, q *cq.Query, d *db.Database, k int) ([]resilience.RankedTuple, error) {
	inst, err := e.InstanceFor(ctx, q, d)
	if err != nil {
		return nil, err
	}
	return resilience.TopKResponsibilityOnInstance(ctx, inst, d, k)
}

// ForgetDatabase drops every cached IR built from d. Callers that retire
// a long-lived database (the serving layer deleting or replacing a
// registry entry) call this so the cache does not pin dead witness
// families until the capacity cap locks the cache up.
func (e *Engine) ForgetDatabase(d *db.Database) { e.irs.evictUID(d.UID()) }

// InstanceFor returns the witness-hypergraph IR for (q, d), consulting the
// engine's cross-request IR cache when the configuration permits (NoClone:
// the cache keys on database identity + version, which only makes sense
// for caller-owned long-lived databases). The returned instance is
// immutable and shared; callers must treat it as read-only.
//
// The serving layer uses this for endpoints that consume the IR directly
// (enumerate-minimum, responsibility), so one enumeration serves solve,
// enumerate and responsibility traffic alike.
func (e *Engine) InstanceFor(ctx context.Context, q *cq.Query, d *db.Database) (*witset.Instance, error) {
	build := func() (*witset.Instance, error) {
		start := time.Now()
		inst, info, err := witset.BuildWith(ctx, q, d, witset.BuildOptions{Workers: e.buildWorkers()})
		if err == nil {
			e.irBuilds.Add(1)
			e.irBuildNs.Add(time.Since(start).Nanoseconds())
			if info.Shards > 1 {
				e.parallelIRBuilds.Add(1)
				e.irBuildShards.Add(int64(info.Shards))
			}
		}
		return inst, err
	}
	if !e.cfg.NoClone {
		return build()
	}
	return e.irs.get(ctx, q, d, build)
}

// PeekInstance returns the cached IR for (q, d) if one is ready, without
// building anything. The watch surface uses this to diff component
// fingerprints across versions; a nil return just means no diff is
// available. Always nil unless NoClone enables the IR cache.
func (e *Engine) PeekInstance(q *cq.Query, d *db.Database) *witset.Instance {
	if !e.cfg.NoClone {
		return nil
	}
	return e.irs.peek(q, d)
}

// MigrateIRs carries every cached IR of the old database over to the new
// one by delta maintenance: instead of invalidating the IRs (the version
// bump already makes them unreachable) and re-enumerating the full witness
// join on the next request, each IR is patched with the witnesses the
// mutation batch touched — a semi-join against the delta — and re-cached
// under the new database's identity. Combined with the component-result
// cache, the next solve then re-runs solvers only on the components the
// mutations dirtied.
//
// old must be the pre-batch database the IRs were built against, new the
// post-batch database (typically a mutated clone of old), and muts the
// batch that takes old to new, with tuples resolved against new's
// interner. IRs that cannot be delta-maintained (unbreakable, or built
// differently than Build would) are skipped and simply rebuilt from
// scratch on demand. A migrated IR takes its source's place in the cache,
// so migration works on a full cache too; old's IRs are not expected to
// be wanted again. Returns the number of IRs migrated. No-op unless
// NoClone enables the IR cache.
func (e *Engine) MigrateIRs(ctx context.Context, old, new *db.Database, muts []witset.Mutation) int {
	if !e.cfg.NoClone || len(muts) == 0 {
		return 0
	}
	migrated := 0
	for _, en := range e.irs.entriesFor(old.UID(), old.Version()) {
		if ctx.Err() != nil {
			break
		}
		// Each migration needs a private pre-batch database to replay the
		// batch against, with an interner covering any constants the batch
		// introduced (clone interners share old's prefix; new appended).
		// The clone is copy-on-write: it copies only what the replay
		// writes.
		work := old.Clone()
		for v := work.NumConsts(); v < new.NumConsts(); v++ {
			work.Const(new.ConstName(db.Value(v)))
		}
		inst, _, err := witset.ApplyDelta(ctx, en.inst, work, muts)
		if err != nil {
			continue
		}
		if e.irs.migrate(en, new.UID(), new.Version(), inst) {
			e.irMigrations.Add(1)
			migrated++
		}
	}
	return migrated
}
