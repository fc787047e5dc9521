package api

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/resilience"
	"repro/internal/witset"
)

// Config tunes a Session. The zero value is usable: engine defaults with
// the cross-request IR cache enabled.
type Config struct {
	// Engine configures the embedded solving engine (workers, timeout,
	// portfolio, cache sizes). NoClone is forced on: the Session owns
	// frozen registered databases, which is exactly the sharing mode
	// NoClone exists for; the engine still clones around the one mutating
	// PTIME solver, so databases handed to a Session are never mutated.
	Engine engine.Config
	// Store receives every acknowledged registry write (Register,
	// MutateDB, DropDB) before it takes effect, the durability hook
	// behind -data-dir. nil means NopStore: in-memory state only.
	Store Store
}

// Session is the one orchestration object behind every surface of the
// system: the repro facade, both CLIs, and the HTTP server all delegate
// task execution to a Session. It wraps the concurrent engine (worker
// pool, classification cache, cross-request witness-IR cache, optional
// exact-vs-SAT portfolio) and a named-database registry, and dispatches
// the task kinds of the v1 API through one code path.
//
// Tasks arrive either fully wire-typed — Do resolves the Task's query text
// and database name — or with in-process objects via the *Query methods,
// which the facade uses. Both roads meet in the same per-kind solvers, so
// a facade call and a wire request with the same inputs produce the same
// answer by construction.
type Session struct {
	eng   *engine.Engine
	store Store

	mu  sync.RWMutex
	dbs map[string]*db.Database

	// wmu guards the per-name writer locks and watch hubs, which are
	// created lazily and never removed (names are few and long-lived).
	wmu   sync.Mutex
	locks map[string]*sync.Mutex
	hubs  map[string]*watchHub
}

// NewSession returns a Session over a fresh engine.
func NewSession(cfg Config) *Session {
	ecfg := cfg.Engine
	ecfg.NoClone = true // see Config.Engine
	st := cfg.Store
	if st == nil {
		st = NopStore{}
	}
	return &Session{
		eng:   engine.New(ecfg),
		store: st,
		dbs:   map[string]*db.Database{},
		locks: map[string]*sync.Mutex{},
		hubs:  map[string]*watchHub{},
	}
}

// writerLock returns the mutex serializing writers (Register, MutateDB,
// DropDB) of the named registry entry. Mutations must read-modify-write
// the registration atomically; per-name locks keep independent databases
// from contending.
func (s *Session) writerLock(name string) *sync.Mutex {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	l := s.locks[name]
	if l == nil {
		l = &sync.Mutex{}
		s.locks[name] = l
	}
	return l
}

// hub returns the watch hub of the named registry entry, creating it on
// first use. Watchers wait on it; every registry write broadcasts.
func (s *Session) hub(name string) *watchHub {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	h := s.hubs[name]
	if h == nil {
		h = newWatchHub()
		s.hubs[name] = h
	}
	return h
}

// Engine exposes the embedded engine (stats, direct batch access) to
// in-process callers such as the CLIs' summary lines and the server's
// /metrics endpoint.
func (s *Session) Engine() *engine.Engine { return s.eng }

// Register freezes d and installs it under name, replacing any previous
// registration. Registered databases are shared read-only across every
// task the Session runs; the replaced database's cached IRs are retired
// from the engine. The registration is logged to the Session's Store
// before it takes effect — a store failure rejects it with the registry
// untouched — and the returned metadata describes the installed state.
func (s *Session) Register(name string, d *db.Database) (DBInfo, error) {
	lock := s.writerLock(name)
	lock.Lock()
	defer lock.Unlock()
	d.Freeze()
	if err := s.store.PutDB(name, allFactStrings(d), d.Version()); err != nil {
		return DBInfo{}, Errorf(CodeInternal, "durable store: %v", err)
	}
	s.install(name, d)
	return dbInfo(name, d), nil
}

// install swaps d into the registry under name, retires the replaced
// database's cached IRs, and wakes the name's watchers. Callers hold the
// name's writer lock.
func (s *Session) install(name string, d *db.Database) {
	s.mu.Lock()
	replaced := s.dbs[name]
	s.dbs[name] = d
	s.mu.Unlock()
	if replaced != nil {
		// The replaced database is unreachable from now on; retire its
		// cached IRs so they stop holding cache capacity.
		s.eng.ForgetDatabase(replaced)
	}
	s.hub(name).broadcast()
}

// RegisterFacts parses facts ("R(a,b)", one per entry) into a fresh
// database and registers it under name. A malformed fact or an arity
// mismatch rejects the whole upload with CodeBadRequest.
func (s *Session) RegisterFacts(name string, facts []string) (DBInfo, error) {
	if len(facts) == 0 {
		return DBInfo{}, Errorf(CodeBadRequest, "facts must be non-empty")
	}
	d, aerr := parseFactDB(facts)
	if aerr != nil {
		return DBInfo{}, aerr
	}
	return s.Register(name, d)
}

// RestoreDB rebuilds a database from recovered state — canonical facts
// plus the persisted mutation counter — and installs it under name
// WITHOUT logging to the store: the store already holds this state;
// re-logging it on every boot would double the log. The rebuilt database
// has a fresh UID (engine caches start cold) but the recovered Version,
// so watchers and version-keyed clients resume the same lineage. Unlike
// RegisterFacts, an empty fact list is accepted: MutateDB can delete
// every tuple of a registered database, and that emptied-but-registered
// state must survive a restart.
func (s *Session) RestoreDB(name string, facts []string, version uint64) (DBInfo, error) {
	d, aerr := parseFactDB(facts)
	if aerr != nil {
		return DBInfo{}, aerr
	}
	d.SetVersion(version)
	lock := s.writerLock(name)
	lock.Lock()
	defer lock.Unlock()
	d.Freeze()
	s.install(name, d)
	return dbInfo(name, d), nil
}

// parseFactDB interns a fact list into a fresh database, the shared
// parser behind RegisterFacts and RestoreDB.
func parseFactDB(facts []string) (*db.Database, *Error) {
	d := db.New()
	for i, f := range facts {
		rel, args, err := ParseFact(f)
		if err != nil {
			return nil, Errorf(CodeBadRequest, "fact %d: %v", i, err)
		}
		if len(args) > db.MaxArity {
			return nil, Errorf(CodeBadRequest, "fact %d: %q has arity %d, want 1..%d", i, f, len(args), db.MaxArity)
		}
		if have := d.Rel(rel); have != nil && have.Arity != len(args) {
			return nil, Errorf(CodeBadRequest, "fact %d: %q has arity %d but relation %s was used with arity %d", i, f, len(args), rel, have.Arity)
		}
		d.AddNames(rel, args...)
	}
	return d, nil
}

// allFactStrings renders d's full contents in canonical fact notation,
// sorted — the put_db log payload.
func allFactStrings(d *db.Database) []string {
	ts := d.AllTuples()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = d.TupleString(t)
	}
	sort.Strings(out)
	return out
}

// DropDB removes the database registered under name, retiring its cached
// IRs. It reports whether a registration existed; the drop is logged to
// the Store first, and a store failure leaves the registration in place.
func (s *Session) DropDB(name string) (bool, error) {
	lock := s.writerLock(name)
	lock.Lock()
	defer lock.Unlock()
	s.mu.RLock()
	d := s.dbs[name]
	s.mu.RUnlock()
	if d == nil {
		return false, nil
	}
	if err := s.store.DropDB(name); err != nil {
		return false, Errorf(CodeInternal, "durable store: %v", err)
	}
	s.mu.Lock()
	delete(s.dbs, name)
	s.mu.Unlock()
	s.eng.ForgetDatabase(d)
	s.hub(name).broadcast()
	return true, nil
}

// DB returns the database registered under name, or nil.
func (s *Session) DB(name string) *db.Database {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dbs[name]
}

// DBNames returns the registered names, sorted.
func (s *Session) DBNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Info returns the registration metadata for name.
func (s *Session) Info(name string) (DBInfo, bool) {
	d := s.DB(name)
	if d == nil {
		return DBInfo{}, false
	}
	return dbInfo(name, d), true
}

// resolve turns a wire Task into in-process objects: parsed query and
// registered database. Every failure carries a typed code.
func (s *Session) resolve(t Task) (*cq.Query, *db.Database, *Error) {
	if err := t.Validate(true); err != nil {
		return nil, nil, err
	}
	q, err := cq.Parse(t.Query)
	if err != nil {
		return nil, nil, Errorf(CodeBadQuery, "%v", err)
	}
	if t.Kind == KindClassify {
		return q, nil, nil
	}
	d := s.DB(t.DB)
	if d == nil {
		return nil, nil, Errorf(CodeUnknownDB, "no database %q registered", t.DB)
	}
	return q, d, nil
}

// Check validates a wire-typed task and resolves its query text and
// database name without executing anything. Serving layers use it to
// reject a doomed streaming request with a proper HTTP status before the
// response stream commits to 200.
func (s *Session) Check(t Task) error {
	if _, _, aerr := s.resolve(t); aerr != nil {
		return aerr
	}
	return nil
}

// Do executes one wire-typed task: validate, resolve query text and
// database name, dispatch on Kind. The returned error, if any, is always
// a *Error (inspect with errors.As, or errors.Is against the sentinels).
func (s *Session) Do(ctx context.Context, t Task) (*Result, error) {
	q, d, aerr := s.resolve(t)
	if aerr != nil {
		return nil, aerr
	}
	return s.DoQuery(ctx, t, q, d)
}

// DoQuery is Do with the query and database supplied in-process, for
// callers that hold them directly (the facade, resil's fact files). The
// Task's Query and DB fields are documentation only on this path; Kind and
// the kind-specific fields drive execution. d may be nil for classify.
func (s *Session) DoQuery(ctx context.Context, t Task, q *cq.Query, d *db.Database) (*Result, error) {
	if err := t.Validate(false); err != nil {
		return nil, err
	}
	if d == nil && t.Kind != KindClassify {
		return nil, Errorf(CodeBadRequest, "%s task: no database", t.Kind)
	}
	res, err := s.run(ctx, t, q, d, nil)
	if err != nil {
		return nil, Wrap(err)
	}
	return res, nil
}

// Stream executes one task, emitting results incrementally. Enumerate
// tasks emit one Partial line per minimum contingency set as the search
// discovers them, then a final line with the totals; every other kind
// emits its single final Result. A task failure is emitted as a final
// Result carrying Error (the transport has typically committed its status
// by then). emit returning an error aborts the task; the underlying
// search observes the abort through ctx-style cancellation and stops.
func (s *Session) Stream(ctx context.Context, t Task, emit func(*Result) error) error {
	q, d, aerr := s.resolve(t)
	if aerr != nil {
		return emit(&Result{ID: t.ID, Kind: t.Kind, Error: aerr})
	}
	res, err := s.run(ctx, t, q, d, emit)
	if err != nil {
		return emit(&Result{ID: t.ID, Kind: t.Kind, Error: Wrap(err)})
	}
	return emit(res)
}

// DoBatch executes tasks concurrently on a worker pool sized like the
// engine's, returning results index-aligned with tasks. Per-task failures
// are carried in Result.Error; the call itself only reflects ctx.
// TimeoutMS on a task bounds that task alone; defaultTimeoutMS applies to
// tasks that do not set their own.
func (s *Session) DoBatch(ctx context.Context, tasks []Task, defaultTimeoutMS int64) []*Result {
	out := make([]*Result, len(tasks))
	s.eachTask(ctx, tasks, defaultTimeoutMS, func(i int, t Task) *Result {
		start := time.Now()
		res, err := s.Do(ctx, t)
		if err != nil {
			res = &Result{
				ID: t.ID, Kind: t.Kind, Error: Wrap(err),
				ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
			}
		}
		res.Index = i
		out[i] = res
		return nil // collected by index; nothing emitted
	})
	return out
}

// StreamBatch executes tasks concurrently and emits results in completion
// order (Result.Index identifies the task). Enumerate tasks additionally
// stream their Partial set lines. emit is never called concurrently; an
// emit error cancels the remaining work.
func (s *Session) StreamBatch(ctx context.Context, tasks []Task, defaultTimeoutMS int64, emit func(*Result) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		emu     sync.Mutex
		emitErr error
	)
	// serialized emit: abort everything once a write fails (client gone).
	locked := func(r *Result) error {
		emu.Lock()
		defer emu.Unlock()
		if emitErr != nil {
			return emitErr
		}
		if err := emit(r); err != nil {
			emitErr = err
			cancel()
			return err
		}
		return nil
	}
	s.eachTask(ctx, tasks, defaultTimeoutMS, func(i int, t Task) *Result {
		index := func(r *Result) *Result { r.Index = i; return r }
		err := s.Stream(ctx, t, func(r *Result) error {
			return locked(index(r))
		})
		if err != nil && emitErr == nil {
			// Stream already emitted the failure line; only transport
			// errors land here, and locked has recorded them.
			locked(index(&Result{ID: t.ID, Kind: t.Kind, Error: Wrap(err)})) //nolint:errcheck
		}
		return nil
	})
	return emitErr
}

// eachTask fans tasks out over a bounded worker pool, applying the batch's
// default timeout to tasks without their own.
func (s *Session) eachTask(ctx context.Context, tasks []Task, defaultTimeoutMS int64, do func(int, Task) *Result) {
	if len(tasks) == 0 {
		return
	}
	workers := s.eng.Workers()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t := tasks[i]
				if t.TimeoutMS <= 0 {
					t.TimeoutMS = defaultTimeoutMS
				}
				do(i, t)
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// run is the single dispatcher every surface funnels into: one switch over
// the task kinds, one timeout application, one error-wrapping discipline.
// When emit is non-nil and the kind supports it (enumerate), incremental
// results are emitted before run returns the final one.
func (s *Session) run(ctx context.Context, t Task, q *cq.Query, d *db.Database, emit func(*Result) error) (*Result, error) {
	if t.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(t.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	res := &Result{ID: t.ID, Kind: t.Kind}
	finish := func() (*Result, error) {
		res.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		return res, nil
	}

	switch t.Kind {
	case KindClassify:
		cl := core.Classify(q)
		res.Verdict = cl.Verdict.String()
		res.Rule = cl.Rule
		res.Normalized = cl.Normalized.String()
		res.Algorithm = cl.Algorithm.String()
		res.Certificate = cl.Certificate
		for _, sub := range cl.Components {
			res.Components = append(res.Components, ClassifyComponent{
				Normalized: sub.Normalized.String(),
				Verdict:    sub.Verdict.String(),
				Rule:       sub.Rule,
			})
		}
		return finish()

	case KindSolve:
		if len(t.Weights) > 0 {
			// Weights break the PTIME specializations (they answer the
			// cardinality question), so weighted solves bypass classification
			// and go straight to the weighted pipeline.
			wres, err := s.SolveWeightedQuery(ctx, q, d, t.Weights)
			if errors.Is(err, resilience.ErrUnbreakable) {
				res.Unbreakable = true
				return finish()
			}
			if err != nil {
				return nil, err
			}
			res.Rho = int(wres.Cost)
			res.Cost = wres.Cost
			res.Method = wres.Method
			res.Witnesses = wres.Witnesses
			res.Contingency = TupleStrings(d, wres.ContingencySet)
			return finish()
		}
		br := s.eng.SolveOne(ctx, engine.Instance{ID: t.ID, Query: q, DB: d})
		res.CacheHit = br.CacheHit
		res.ElapsedMS = float64(br.Elapsed) / float64(time.Millisecond)
		if br.Classification != nil {
			res.Verdict = br.Classification.Verdict.String()
			res.Rule = br.Classification.Rule
		}
		switch {
		case errors.Is(br.Err, resilience.ErrUnbreakable):
			res.Unbreakable = true
		case br.Err != nil:
			return nil, br.Err
		default:
			res.Rho = br.Res.Rho
			res.Method = br.Res.Method
			res.Witnesses = br.Res.Witnesses
			res.Contingency = TupleStrings(d, br.Res.ContingencySet)
		}
		return res, nil

	case KindEnumerate:
		weighted := len(t.Weights) > 0
		if emit == nil {
			cost, sets, err := s.EnumerateWeightedQuery(ctx, q, d, t.MaxSets, t.Weights)
			if errors.Is(err, resilience.ErrUnbreakable) {
				res.Unbreakable = true
				return finish()
			}
			if err != nil {
				return nil, err
			}
			res.Rho = int(cost)
			if weighted {
				res.Cost = cost
			}
			res.Sets = make([][]string, len(sets))
			for i, set := range sets {
				res.Sets[i] = TupleStrings(d, set)
			}
			res.Total = len(sets)
			return finish()
		}
		cost, total, err := s.enumerateStream(ctx, t, q, d, emit)
		if errors.Is(err, resilience.ErrUnbreakable) {
			res.Unbreakable = true
			return finish()
		}
		if err != nil {
			return nil, err
		}
		res.Rho = int(cost)
		if weighted {
			res.Cost = cost
		}
		res.Total = total
		return finish()

	case KindResponsibility:
		probe, aerr := LookupTuple(d, t.Tuple)
		if aerr != nil {
			return nil, aerr
		}
		if q.IsExogenous(probe.Rel) {
			// A client input error, not a solver failure: only endogenous
			// tuples can be causes.
			return nil, Errorf(CodeBadTuple,
				"%s is exogenous in the query; only endogenous tuples can be causes", t.Tuple)
		}
		k, gamma, err := s.ResponsibilityWeightedQuery(ctx, q, d, probe, t.Weights)
		res.Tuple = d.TupleString(probe)
		switch {
		case errors.Is(err, resilience.ErrNotCounterfactual):
			res.NotCounterfactual = true
		case err != nil:
			return nil, err
		default:
			res.K = int(k)
			if len(t.Weights) > 0 {
				res.Cost = k
			}
			res.Responsibility = 1.0 / float64(1+k)
			res.Contingency = TupleStrings(d, gamma)
		}
		return finish()

	case KindDecide:
		holds, err := s.DecideQuery(ctx, q, d, t.K)
		if errors.Is(err, resilience.ErrUnbreakable) {
			res.Unbreakable = true
			res.K = t.K
			return finish()
		}
		if err != nil {
			return nil, err
		}
		res.Holds = holds
		res.K = t.K
		return finish()

	case KindTopKResponsibility:
		inst, err := s.weightedInstanceFor(ctx, q, d, t.Weights)
		if err != nil {
			return nil, err
		}
		if emit == nil {
			ranked, err := resilience.TopKResponsibilityOnInstance(ctx, inst, d, t.K)
			if errors.Is(err, resilience.ErrUnbreakable) {
				res.Unbreakable = true
				return finish()
			}
			if err != nil {
				return nil, err
			}
			for i, rt := range ranked {
				res.Ranked = append(res.Ranked, rankedEntry(d, i, rt))
			}
			res.Total = len(ranked)
			return finish()
		}
		total, err := resilience.TopKResponsibilityFunc(ctx, inst, d, t.K,
			func(rank int, rt resilience.RankedTuple) error {
				return emit(&Result{
					ID:      t.ID,
					Kind:    KindTopKResponsibility,
					Partial: true,
					Ranked:  []RankedTuple{rankedEntry(d, rank, rt)},
				})
			})
		if errors.Is(err, resilience.ErrUnbreakable) {
			res.Unbreakable = true
			return finish()
		}
		if err != nil {
			return nil, err
		}
		res.Total = total
		return finish()

	case KindWatch:
		wres, err := s.watch(ctx, t, q, emit)
		if err != nil {
			return nil, err
		}
		res = wres
		return finish()

	case KindVerifyContingency:
		gamma := make([]db.Tuple, 0, len(t.Gamma))
		for _, text := range t.Gamma {
			tup, invalidReason, aerr := lookupGammaTuple(d, text)
			if aerr != nil {
				return nil, aerr
			}
			if invalidReason != "" {
				// A tuple that is not in the database makes the claimed
				// contingency definitively invalid — an answer, not an
				// error.
				res.Valid = false
				res.Reason = invalidReason
				return finish()
			}
			gamma = append(gamma, tup)
		}
		err := s.VerifyQuery(ctx, q, d, gamma)
		switch {
		case err == nil:
			res.Valid = true
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return nil, err
		default:
			res.Valid = false
			res.Reason = err.Error()
		}
		return finish()
	}
	return nil, Errorf(CodeBadRequest, "unknown task kind %q", t.Kind)
}

// enumerateStream runs the streaming enumeration, emitting one Partial
// Result per set. It is the weighted streaming path too: a task carrying
// weights streams minimum-cost sets, with Cost set on every line.
func (s *Session) enumerateStream(ctx context.Context, t Task, q *cq.Query, d *db.Database, emit func(*Result) error) (int64, int, error) {
	inst, err := s.weightedInstanceFor(ctx, q, d, t.Weights)
	if err != nil {
		return 0, 0, err
	}
	weighted := len(t.Weights) > 0
	return resilience.EnumerateMinimumWeightedFunc(ctx, inst, d, t.MaxSets,
		func(cost int64, set []db.Tuple) error {
			r := &Result{
				ID:      t.ID,
				Kind:    KindEnumerate,
				Partial: true,
				Rho:     int(cost),
				Sets:    [][]string{TupleStrings(d, set)},
			}
			if weighted {
				r.Cost = cost
			}
			return emit(r)
		})
}

// rankedEntry renders one resilience ranking entry onto the wire, with the
// same field semantics as a responsibility Result (score 1/(1+K), rendered
// contingency set, none when K == 0). The solver's 0-based rank becomes
// 1-based on the wire.
func rankedEntry(d *db.Database, rank int, rt resilience.RankedTuple) RankedTuple {
	return RankedTuple{
		Rank:           rank + 1,
		Tuple:          d.TupleString(rt.Tuple),
		K:              rt.K,
		Responsibility: 1.0 / float64(1+rt.K),
		Contingency:    TupleStrings(d, rt.Gamma),
	}
}

// weightedInstanceFor resolves the task's weight map into a per-tuple cost
// vector over the engine's cached IR and returns a derived weighted
// instance sharing that IR's enumeration and component split (the cache
// keeps the unweighted base; the derived instance re-costs its components
// and builds its own families and kernels). With no weights it returns the cached instance itself. Every
// fact named in the map must exist in the database (CodeBadTuple
// otherwise); facts outside the witness universe are inert — no solver can
// delete them, so their cost never matters. Unlisted tuples cost 1.
func (s *Session) weightedInstanceFor(ctx context.Context, q *cq.Query, d *db.Database, weights map[string]int64) (*witset.Instance, error) {
	inst, err := s.eng.InstanceFor(ctx, q, d)
	if err != nil || len(weights) == 0 {
		return inst, err
	}
	wv := make([]int64, inst.NumTuples())
	for i := range wv {
		wv[i] = 1
	}
	for fact, cost := range weights {
		tup, aerr := LookupTuple(d, fact)
		if aerr != nil {
			return nil, aerr
		}
		if id, ok := inst.ID(tup); ok {
			wv[id] = cost
		}
	}
	winst, werr := inst.WithWeights(wv)
	if werr != nil {
		return nil, Errorf(CodeBadRequest, "%v", werr)
	}
	return winst, nil
}

// The typed task methods below are the in-process halves of the six kinds:
// the facade delegates to them directly, and run dispatches into them
// after resolving a wire Task, so both surfaces share one implementation.

// SolveQuery computes ρ(q, d) through the engine (classification cache,
// IR cache, optional portfolio).
func (s *Session) SolveQuery(ctx context.Context, q *cq.Query, d *db.Database) (*resilience.Result, *core.Classification, error) {
	return s.eng.Solve(ctx, q, d)
}

// EnumerateQuery returns ρ(q, d) with every minimum contingency set (up to
// maxSets; 0 = no cap), reusing the engine's cached IR when available.
func (s *Session) EnumerateQuery(ctx context.Context, q *cq.Query, d *db.Database, maxSets int) (int, [][]db.Tuple, error) {
	rho, sets, err := s.EnumerateWeightedQuery(ctx, q, d, maxSets, nil)
	return int(rho), sets, err
}

// ResponsibilityQuery computes the responsibility of tuple t for q on d,
// reusing the engine's cached IR when available.
func (s *Session) ResponsibilityQuery(ctx context.Context, q *cq.Query, d *db.Database, t db.Tuple) (int, []db.Tuple, error) {
	k, gamma, err := s.ResponsibilityWeightedQuery(ctx, q, d, t, nil)
	return int(k), gamma, err
}

// SolveWeightedQuery computes ρ_w(q, d) under the given per-fact deletion
// costs (unlisted facts cost 1; a nil/empty map is the plain cardinality
// solve, reported as a weighted one). Classification is bypassed: the
// PTIME specializations answer only the cardinality question.
func (s *Session) SolveWeightedQuery(ctx context.Context, q *cq.Query, d *db.Database, weights map[string]int64) (*resilience.WeightedResult, error) {
	inst, err := s.weightedInstanceFor(ctx, q, d, weights)
	if err != nil {
		return nil, err
	}
	return s.eng.SolveWeightedInstance(ctx, inst)
}

// EnumerateWeightedQuery returns ρ_w(q, d) with every minimum-cost
// contingency set (up to maxSets; 0 = no cap) under the given per-fact
// costs (none: the cardinality enumeration), reusing the engine's cached
// IR when available.
func (s *Session) EnumerateWeightedQuery(ctx context.Context, q *cq.Query, d *db.Database, maxSets int, weights map[string]int64) (int64, [][]db.Tuple, error) {
	inst, err := s.weightedInstanceFor(ctx, q, d, weights)
	if err != nil {
		return 0, nil, err
	}
	return resilience.EnumerateMinimumWeightedOnInstance(ctx, inst, d, maxSets)
}

// ResponsibilityWeightedQuery computes the min-cost responsibility of tuple
// t for q on d under the given per-fact costs (none: the cardinality
// responsibility), reusing the engine's cached IR when available.
func (s *Session) ResponsibilityWeightedQuery(ctx context.Context, q *cq.Query, d *db.Database, t db.Tuple, weights map[string]int64) (int64, []db.Tuple, error) {
	inst, err := s.weightedInstanceFor(ctx, q, d, weights)
	if err != nil {
		return 0, nil, err
	}
	return resilience.ResponsibilityOnInstance(ctx, inst, d, t)
}

// TopKResponsibilityQuery ranks the k most responsible tuples of (q, d),
// optionally under per-fact deletion costs, reusing the engine's cached IR
// when available.
func (s *Session) TopKResponsibilityQuery(ctx context.Context, q *cq.Query, d *db.Database, k int, weights map[string]int64) ([]resilience.RankedTuple, error) {
	inst, err := s.weightedInstanceFor(ctx, q, d, weights)
	if err != nil {
		return nil, err
	}
	return resilience.TopKResponsibilityOnInstance(ctx, inst, d, k)
}

// DecideQuery answers (d, k) ∈ RES(q), reusing the engine's cached IR when
// available.
func (s *Session) DecideQuery(ctx context.Context, q *cq.Query, d *db.Database, k int) (bool, error) {
	inst, err := s.eng.InstanceFor(ctx, q, d)
	if err != nil {
		return false, err
	}
	return resilience.DecideOnInstance(ctx, inst, k)
}

// VerifyQuery checks that deleting gamma falsifies q on d. A nil return
// means the contingency set is valid; a non-context error explains why it
// is not.
func (s *Session) VerifyQuery(ctx context.Context, q *cq.Query, d *db.Database, gamma []db.Tuple) error {
	inst, err := s.eng.InstanceFor(ctx, q, d)
	if err != nil {
		return err
	}
	return resilience.VerifyContingencyOnInstance(inst, d, gamma)
}

// dbInfo snapshots the registration metadata of d under the given name.
func dbInfo(name string, d *db.Database) DBInfo {
	rels := map[string]int{}
	for _, rn := range d.RelationNames() {
		rels[rn] = d.Rel(rn).Len()
	}
	return DBInfo{
		Name:      name,
		Tuples:    d.Len(),
		Constants: d.NumConsts(),
		Relations: rels,
		Version:   d.Version(),
	}
}

// ParseFact splits "R(a,b)" into its relation name and argument names. It
// is strict — a malformed wire fact is a client error: the closing
// parenthesis must end the fact, and the relation and every argument must
// be non-empty.
func ParseFact(text string) (rel string, args []string, err error) {
	text = strings.TrimSpace(text)
	open := strings.IndexByte(text, '(')
	if open <= 0 || !strings.HasSuffix(text, ")") || open >= len(text)-1 {
		return "", nil, fmt.Errorf("malformed fact %q (want R(a,b))", text)
	}
	rel = strings.TrimSpace(text[:open])
	if rel == "" {
		return "", nil, fmt.Errorf("malformed fact %q (empty relation name)", text)
	}
	for _, part := range strings.Split(text[open+1:len(text)-1], ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return "", nil, fmt.Errorf("malformed fact %q (empty argument)", text)
		}
		args = append(args, part)
	}
	return rel, args, nil
}

// LookupTuple resolves a fact string against d without interning: the
// tuple must already exist in d (a Session never mutates a registered
// database). Failures carry CodeBadTuple.
func LookupTuple(d *db.Database, text string) (db.Tuple, *Error) {
	rel, args, err := ParseFact(text)
	if err != nil {
		return db.Tuple{}, Errorf(CodeBadTuple, "%v", err)
	}
	if len(args) == 0 || len(args) > db.MaxArity {
		return db.Tuple{}, Errorf(CodeBadTuple, "fact %q has arity %d, want 1..%d", text, len(args), db.MaxArity)
	}
	t := db.Tuple{Rel: rel, Arity: uint8(len(args))}
	for i, a := range args {
		v, ok := d.LookupConst(a)
		if !ok {
			return db.Tuple{}, Errorf(CodeBadTuple, "fact %s not in database (unknown constant %q)", text, a)
		}
		t.Args[i] = v
	}
	if !d.Has(t) {
		return db.Tuple{}, Errorf(CodeBadTuple, "fact %s not in database", text)
	}
	return t, nil
}

// lookupGammaTuple resolves a verify-contingency element. Malformed text
// is a request error; a well-formed tuple that is simply not in the
// database is a definite "invalid contingency" answer, returned as a
// reason.
func lookupGammaTuple(d *db.Database, text string) (db.Tuple, string, *Error) {
	rel, args, err := ParseFact(text)
	if err != nil {
		return db.Tuple{}, "", Errorf(CodeBadTuple, "%v", err)
	}
	if len(args) == 0 || len(args) > db.MaxArity {
		return db.Tuple{}, "", Errorf(CodeBadTuple, "fact %q has arity %d, want 1..%d", text, len(args), db.MaxArity)
	}
	t := db.Tuple{Rel: rel, Arity: uint8(len(args))}
	for i, a := range args {
		v, ok := d.LookupConst(a)
		if !ok {
			return db.Tuple{}, fmt.Sprintf("contingency set tuple %s not in database", text), nil
		}
		t.Args[i] = v
	}
	if !d.Has(t) {
		return db.Tuple{}, fmt.Sprintf("contingency set tuple %s not in database", text), nil
	}
	return t, "", nil
}

// TupleStrings renders a tuple set with constant names resolved, the
// canonical wire encoding of contingency sets.
func TupleStrings(d *db.Database, ts []db.Tuple) []string {
	if len(ts) == 0 {
		return nil
	}
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = d.TupleString(t)
	}
	return out
}
