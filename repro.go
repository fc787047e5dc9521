// Package repro is a from-scratch Go implementation of
//
//	"New Results for the Complexity of Resilience for Binary Conjunctive
//	 Queries with Self-Joins" (Freire, Gatterbauer, Immerman, Meliou,
//	 PODS 2020, arXiv:1907.01129v2)
//
// The resilience ρ(q, D) of a Boolean conjunctive query q on a database D
// is the minimum number of endogenous tuples whose deletion falsifies q.
// This package is the public facade over the full system:
//
//   - Parse / MustParse build conjunctive queries in Datalog notation,
//     with ^x marking exogenous (non-deletable) relations;
//   - Classify decides whether RES(q) is PTIME or NP-complete (the
//     dichotomy of Theorem 37 plus the Section 8 partial results), with a
//     certificate naming the structural pattern and paper result;
//   - Resilience computes ρ with the fastest sound algorithm (network
//     flow and the specialized PTIME solvers where the classifier permits,
//     exact branch-and-bound otherwise);
//   - ResilienceExact always uses the exact solver;
//   - DeletionPropagation answers source-side-effect deletion propagation
//     for non-Boolean queries via witness filtering;
//   - FindIJP / SearchIJP expose the Independent Join Path machinery of
//     Section 9.
//
// Quick start:
//
//	q := repro.MustParse("qchain :- R(x,y), R(y,z)")
//	d := repro.NewDatabase()
//	d.AddNames("R", "1", "2")
//	d.AddNames("R", "2", "3")
//	d.AddNames("R", "3", "3")
//	res, cl, _ := repro.Resilience(q, d)   // res.Rho == 2
//	fmt.Println(cl.Verdict)                // NP-complete (but tiny inputs are fine)
package repro

import (
	"context"
	"fmt"
	"sync"

	"repro/api"
	"repro/internal/cnfenc"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/hardness"
	"repro/internal/ijp"
	"repro/internal/resilience"
	"repro/internal/server"
)

// Re-exported core types. The aliases expose the full method sets of the
// internal packages through the public API.
type (
	// Query is a Boolean conjunctive query with exogenous annotations.
	Query = cq.Query
	// Database is an in-memory instance: relations of interned tuples.
	Database = db.Database
	// Tuple is a single fact; comparable and usable as a map key.
	Tuple = db.Tuple
	// Value is an interned constant.
	Value = db.Value
	// Classification is a complexity verdict with certificate.
	Classification = core.Classification
	// Verdict is the complexity class of RES(q).
	Verdict = core.Verdict
	// Result is the outcome of a resilience computation.
	Result = resilience.Result
	// Witness is a satisfying valuation of a query's variables.
	Witness = eval.Witness
	// Var identifies a query variable.
	Var = cq.Var
	// IJPCertificate is a verified Independent Join Path (Definition 48).
	IJPCertificate = ijp.Certificate
)

// Verdict values (see core.Verdict).
const (
	PTime      = core.PTime
	NPComplete = core.NPComplete
	Open       = core.Open
	OutOfScope = core.OutOfScope
)

// ErrUnbreakable is returned when no endogenous deletion can falsify the
// query (some witness consists purely of exogenous tuples).
var ErrUnbreakable = resilience.ErrUnbreakable

// The unified v1 task API (package repro/api), re-exported: one typed
// request envelope — Task, a tagged union over TaskKind — shared by the
// facade, the CLIs, the HTTP server and the client SDK, with typed error
// codes and a Session orchestration object behind all of them.
type (
	// Task is the single request envelope of the v1 API.
	Task = api.Task
	// TaskKind discriminates the task union (classify, solve, enumerate,
	// responsibility, decide, verify_contingency, watch).
	TaskKind = api.Kind
	// TaskResult is the single response envelope.
	TaskResult = api.Result
	// TaskError is the typed error of the v1 API; its Code maps 1:1 to an
	// HTTP status, and the api package's sentinels (api.ErrTimeout, ...)
	// match by code under errors.Is.
	TaskError = api.Error
	// Session is the orchestration object wrapping engine + database
	// registry that every surface of the system delegates to.
	Session = api.Session
	// SessionConfig tunes a Session.
	SessionConfig = api.Config
	// Mutation is one tuple-level change in a Session.MutateDB batch (and
	// the element of a PATCH /v1/db/{name} request).
	Mutation = api.Mutation
	// RankedTuple is one entry of a top_k_responsibility ranking.
	RankedTuple = api.RankedTuple
)

// Task kinds, re-exported.
const (
	TaskClassify           = api.KindClassify
	TaskSolve              = api.KindSolve
	TaskEnumerate          = api.KindEnumerate
	TaskResponsibility     = api.KindResponsibility
	TaskDecide             = api.KindDecide
	TaskVerifyContingency  = api.KindVerifyContingency
	TaskWatch              = api.KindWatch
	TaskTopKResponsibility = api.KindTopKResponsibility
)

// Mutation ops, re-exported.
const (
	MutationInsert = api.MutationInsert
	MutationDelete = api.MutationDelete
)

// NewSession returns a task-API Session over a fresh engine: the
// programmatic equivalent of a resilserverd instance, and the object the
// package-level convenience functions below delegate to.
func NewSession(cfg SessionConfig) *Session { return api.NewSession(cfg) }

// facadeSession is the shared Session behind the package-level functions:
// Resilience, EnumerateMinimum, Responsibility, Decide and
// VerifyContingency all dispatch through it, so the facade, the CLIs and
// the server run the same orchestration path (classification cache,
// cross-request witness-IR cache) and return the same answers by
// construction.
var (
	facadeOnce    sync.Once
	facadeSession *Session
)

func sessionDefault() *Session {
	facadeOnce.Do(func() { facadeSession = api.NewSession(api.Config{}) })
	return facadeSession
}

// Parse parses a query in Datalog-like notation, e.g.
// "q :- A(x), R(x,y), S(y,z)^x". See cq.Parse for the grammar.
func Parse(s string) (*Query, error) { return cq.Parse(s) }

// MustParse is Parse panicking on error.
func MustParse(s string) *Query { return cq.MustParse(s) }

// NewDatabase returns an empty database instance.
func NewDatabase() *Database { return db.New() }

// Classify determines the complexity of RES(q) per the paper's dichotomy
// (Theorem 37) and related results, returning a certificate.
func Classify(q *Query) *Classification { return core.Classify(q) }

// Resilience computes ρ(q, D) using the algorithm selected by the
// classifier (network flow / specialized PTIME solvers / exact search).
// It delegates to the shared task-API Session, so repeated calls amortize
// query classification and witness enumeration across the process.
func Resilience(q *Query, d *Database) (*Result, *Classification, error) {
	return ResilienceCtx(context.Background(), q, d)
}

// ResilienceCtx is Resilience with cooperative cancellation: the exact
// search polls ctx and aborts with ctx.Err() once it is done.
func ResilienceCtx(ctx context.Context, q *Query, d *Database) (*Result, *Classification, error) {
	return sessionDefault().SolveQuery(ctx, q, d)
}

// Engine is the concurrent solving service: a worker-pool batch API with
// per-instance timeouts, a classification cache keyed by query structure
// up to isomorphism, an optional solver portfolio that races exact
// branch-and-bound against SAT binary search on NP-hard instances, and —
// in NoClone mode, as used by the Server — a cross-request witness-IR
// cache keyed by (query class, database version) so repeated queries
// against a stable database enumerate witnesses once.
//
//	eng := repro.NewEngine(repro.EngineConfig{Workers: 8, Portfolio: true})
//	results := eng.SolveBatch(ctx, []repro.Instance{{ID: "a", Query: q, DB: d}})
type Engine = engine.Engine

// EngineConfig tunes an Engine; the zero value means GOMAXPROCS workers,
// no timeout, portfolio off, defensive per-instance cloning on.
type EngineConfig = engine.Config

// EngineStats is a snapshot of an Engine's counters: instances solved and
// timed out, classification- and IR-cache hit rates, portfolio win split,
// and the IR-build / solver-run counts behind the enumerate-once
// invariant.
type EngineStats = engine.Stats

// Instance is one (query, database) problem in a batch.
type Instance = engine.Instance

// BatchResult is the outcome of one Instance, index-aligned with the
// batch passed to SolveBatch.
type BatchResult = engine.BatchResult

// NewEngine returns a reusable concurrent resilience engine. A long-lived
// Engine amortizes query classification across every batch it serves.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// Server is the resilience-as-a-service HTTP layer: a long-running front
// end over a task-API Session with a named-database registry (upload once
// via PUT /v1/db/{name}, solve many queries against it), the versioned
// /v1 task surface (generic dispatch over the Task envelope, NDJSON
// streaming, async jobs), a cross-request witness-IR cache, admission
// control with 429 backpressure, per-request timeouts, and /metrics +
// /healthz endpoints. It implements
// http.Handler; cmd/resilserverd is the ready-made daemon around it.
// Call Close on shutdown to stop the async-job workers.
//
//	srv := repro.NewServer(repro.ServerConfig{
//	    Engine:      repro.EngineConfig{Portfolio: true},
//	    MaxInFlight: 128,
//	})
//	log.Fatal(http.ListenAndServe(":8080", srv))
type Server = server.Server

// ServerConfig tunes a Server; the zero value means engine defaults,
// 64 in-flight solver requests, no default request timeout, and a 32 MiB
// body cap. The embedded engine always runs in NoClone mode: registered
// databases are frozen at upload and shared read-only across requests.
type ServerConfig = server.Config

// NewServer returns the HTTP serving layer over a fresh Engine. The
// returned Server is an http.Handler ready to mount on any mux or
// http.Server. With ServerConfig.DataDir set it panics if the durable
// store cannot be opened; use OpenServer to handle that error.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// OpenServer is NewServer with the durable-store error surfaced: when
// cfg.DataDir is set it opens (or creates) the snapshot+WAL store there,
// recovers the database registry and job store from the last run, and
// journals every subsequent state change. Server.Recovery reports what
// was recovered.
func OpenServer(cfg ServerConfig) (*Server, error) { return server.Open(cfg) }

// ResilienceExact computes ρ(q, D) with the exact branch-and-bound solver,
// which is sound for every conjunctive query.
func ResilienceExact(q *Query, d *Database) (*Result, error) {
	return resilience.Exact(q, d)
}

// Decide reports whether (D, k) ∈ RES(q): D |= q and at most k endogenous
// deletions falsify q (Definition 1). It delegates to the shared task-API
// Session and reuses its cached witness IR when one exists.
func Decide(q *Query, d *Database, k int) (bool, error) {
	return sessionDefault().DecideQuery(context.Background(), q, d, k)
}

// Satisfied reports whether D |= q, i.e. whether q has at least one
// witness over d. It is the Boolean query evaluation the resilience
// problem starts from: ρ(q, D) is only defined when D |= q.
func Satisfied(q *Query, d *Database) bool { return eval.Satisfied(q, d) }

// Witnesses enumerates every witness of q over d: each is a total
// valuation of q's variables under which all atoms are facts of d
// (Definition 1). The per-witness endogenous tuple sets are what every
// NP-side solver reduces to (minimum hitting set over them is ρ).
func Witnesses(q *Query, d *Database) []Witness { return eval.Witnesses(q, d) }

// VerifyContingency checks that deleting gamma falsifies q on d — the
// certificate check for any claimed contingency set: every tuple must be
// endogenous and present, and q must be false afterwards. The database is
// restored before returning, so d is unchanged on success and failure
// alike. It must not be called concurrently with other users of d.
func VerifyContingency(q *Query, d *Database, gamma []Tuple) error {
	return sessionDefault().VerifyQuery(context.Background(), q, d, gamma)
}

// DeletionPropagation solves deletion propagation with source side-effects
// (Section 1 of the paper): given a non-Boolean query — q's body plus head
// variables named in head — and an output tuple out (constant names, one
// per head variable), it returns the minimum set of endogenous source
// tuples whose deletion removes out from the query result.
//
// Semantics: exactly the witnesses producing out are targeted, so
// self-joins are handled soundly (tuple identity is preserved, unlike
// per-atom specialization).
func DeletionPropagation(q *Query, head []string, d *Database, out []string) (*Result, error) {
	if len(head) != len(out) {
		return nil, fmt.Errorf("repro: head has %d variables but output tuple has %d", len(head), len(out))
	}
	vars := make([]cq.Var, len(head))
	vals := make([]db.Value, len(head))
	for i, name := range head {
		v, ok := q.LookupVar(name)
		if !ok {
			return nil, fmt.Errorf("repro: head variable %q not in query", name)
		}
		vars[i] = v
		vals[i] = d.Const(out[i])
	}
	res, err := resilience.ExactFiltered(q, d, func(w eval.Witness) bool {
		for i, v := range vars {
			if w[v] != vals[i] {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Method = "deletion-propagation/" + res.Method
	return res, nil
}

// FindIJP checks whether d forms an Independent Join Path for q under any
// endpoint pair (Definition 48), returning the certificate or nil.
func FindIJP(q *Query, d *Database) *IJPCertificate { return ijp.Check(q, d) }

// SearchIJP runs the Appendix C.2 automated search: up to maxJoins
// canonical witnesses, all constant partitions (bounded by maxConsts
// constants per level). Returns the certificate (or nil), the number of
// candidate databases tested, and whether the space was exhausted.
func SearchIJP(q *Query, maxJoins, maxConsts int) (*IJPCertificate, int, bool) {
	return ijp.Search(q, maxJoins, maxConsts)
}

// ChainableIJP is an IJP whose chained Vertex Cover reduction (Figure 8 /
// Conjecture 49) has been validated empirically: ρ(q, D_G) = VC(G) + β·|E|
// on the calibration graph battery.
type ChainableIJP = ijp.ChainableCertificate

// SearchHardnessProof upgrades SearchIJP to the paper's full Section 9
// program: it hunts for an IJP whose chained copies demonstrably reduce
// Vertex Cover to RES(q), i.e., an automatically discovered and validated
// NP-hardness reduction. Returns the validated certificate (or nil), the
// number of candidate databases tested, and whether the space was
// exhausted.
func SearchHardnessProof(q *Query, maxJoins, maxConsts int) (*ChainableIJP, int, bool) {
	return ijp.SearchChainable(q, maxJoins, maxConsts)
}

// Responsibility computes the causal responsibility of an endogenous
// tuple t for D |= q in the sense of Meliou et al. [31] (the notion the
// paper's introduction builds on): the minimum size k of a contingency
// set Γ such that D−Γ |= q but D−Γ−{t} ̸|= q, together with one optimal
// Γ. The responsibility score of [31] is 1/(1+k). It returns
// resilience.ErrNotCounterfactual when no contingency makes t a
// counterfactual cause.
func Responsibility(q *Query, d *Database, t Tuple) (int, []Tuple, error) {
	return sessionDefault().ResponsibilityQuery(context.Background(), q, d, t)
}

// TopKResponsibility ranks the k most responsible endogenous tuples of
// (q, D): each entry carries the tuple, its minimum contingency size (or
// cost, under weights passed via the task API), the responsibility score
// 1/(1+k), and one optimal contingency set. Ties are broken by the tuples'
// rendered form, so the ranking is deterministic. The per-component minima
// behind every entry are solved once and shared across the whole ranking.
func TopKResponsibility(q *Query, d *Database, k int) ([]RankedTuple, error) {
	res, err := sessionDefault().DoQuery(context.Background(), Task{Kind: TaskTopKResponsibility, K: k}, q, d)
	if err != nil {
		return nil, err
	}
	return res.Ranked, nil
}

// EnumerateMinimum returns ρ(q, D) with every minimum contingency set (up
// to maxSets; 0 = no cap) — the full space of optimal interventions, for
// explanation and repair applications that need more than one witness of
// optimality.
func EnumerateMinimum(q *Query, d *Database, maxSets int) (int, [][]Tuple, error) {
	return sessionDefault().EnumerateQuery(context.Background(), q, d, maxSets)
}

// HardnessReduction is an executable NP-hardness reduction for a query:
// Vertex Cover or 3SAT instances map to RES(q) membership instances.
type HardnessReduction = hardness.Reduction

// BuildHardness returns an executable hardness reduction for q — the
// NP-complete side's counterpart to the PTIME solvers. The reduction is
// selected by the classifier's certificate (generic path / chain gadget /
// bound-permutation gadget / Proposition 32 confluence reduction), falling
// back to an automatically discovered chainable IJP for triads and the
// Section 8 catalog. It fails with hardness.ErrNoReduction when q is not
// NP-complete or no gadget is available.
func BuildHardness(q *Query) (*HardnessReduction, error) { return hardness.Build(q) }

// DecideSAT answers the RES(q, D, k) decision problem with the
// independently implemented SAT oracle (CNF encoding with a sequential
// cardinality counter, solved by CDCL). It cross-checks the
// branch-and-bound solver and additionally returns a verified contingency
// set of size ≤ k when the answer is yes.
func DecideSAT(q *Query, d *Database, k int) (bool, []Tuple, error) {
	return cnfenc.Decide(q, d, k)
}
