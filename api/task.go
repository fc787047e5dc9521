package api

import "time"

// Kind discriminates the task union. Every paper-level workload the system
// serves is one of these kinds; new workloads add a Kind here and a
// case in the Session dispatcher, and every surface (facade, CLIs, HTTP,
// client SDK) picks it up at once.
type Kind string

const (
	// KindClassify asks for the complexity of RES(q) per the paper's
	// dichotomy (Theorem 37 and the Section 8 partial results).
	KindClassify Kind = "classify"
	// KindSolve computes ρ(q, D) with the classifier-selected algorithm.
	KindSolve Kind = "solve"
	// KindEnumerate computes ρ plus every minimum contingency set (capped
	// by MaxSets). It is the streamable kind: each set can be flushed as
	// the search discovers it.
	KindEnumerate Kind = "enumerate"
	// KindResponsibility computes the causal responsibility of one
	// endogenous tuple (minimum contingency size k; score 1/(1+k)).
	KindResponsibility Kind = "responsibility"
	// KindDecide answers the membership question (D, k) ∈ RES(q).
	KindDecide Kind = "decide"
	// KindVerifyContingency checks a claimed contingency set: every tuple
	// endogenous and present, and the query falsified after deletion.
	KindVerifyContingency Kind = "verify_contingency"
	// KindWatch holds a stream open over a registered database and emits a
	// line whenever a mutation changes ρ(q, D) — the live-monitoring kind.
	// It requires a streaming transport (NDJSON): each emitted line carries
	// Version, Rho and ChangedComponents; FromVersion suppresses the
	// initial snapshot on reconnect and MaxEvents bounds the subscription.
	KindWatch Kind = "watch"
	// KindTopKResponsibility ranks the K most responsible tuples of the
	// instance off one shared witness IR — higher responsibility (smaller
	// minimum contingency) first, ties broken by the rendered tuple. It
	// streams one ranked tuple per line; with k=1 budgets its per-tuple
	// payload is byte-identical to a responsibility result's.
	KindTopKResponsibility Kind = "top_k_responsibility"
)

// Kinds lists every task kind, in the order they are documented.
var Kinds = []Kind{
	KindClassify, KindSolve, KindEnumerate,
	KindResponsibility, KindDecide, KindVerifyContingency, KindWatch,
	KindTopKResponsibility,
}

// Valid reports whether k is a known task kind.
func (k Kind) Valid() bool {
	for _, known := range Kinds {
		if k == known {
			return true
		}
	}
	return false
}

// Task is the single request envelope of the v1 API: a tagged union over
// Kind. The same struct is the library-level request (Session.Do), the
// wire request (POST /v1/tasks and /v1/jobs), and the client SDK's input —
// there is exactly one encoding of each task from library to wire.
//
// Kind and Query are always required. DB names a registered database and
// is required for every kind except classify. The remaining fields belong
// to individual kinds and are ignored by the others.
type Task struct {
	// ID is an optional caller-chosen correlation id, echoed in the
	// Result (batch results additionally carry their index).
	ID string `json:"id,omitempty"`
	// Kind selects the task; see the Kind constants.
	Kind Kind `json:"kind"`
	// Query is the conjunctive query in Datalog notation, e.g.
	// "q :- R(x,y), R(y,z)" with ^x marking exogenous atoms.
	Query string `json:"query"`
	// DB names the registered database the task runs against.
	DB string `json:"db,omitempty"`
	// K is the deletion budget of a decide task.
	K int `json:"k,omitempty"`
	// MaxSets caps the sets returned by an enumerate task (0 = no cap).
	MaxSets int `json:"max_sets,omitempty"`
	// Tuple is the responsibility probe, e.g. "R(1,2)".
	Tuple string `json:"tuple,omitempty"`
	// Weights maps fact strings (e.g. "R(1,2)") to positive integer
	// deletion costs, turning solve/enumerate/responsibility into their
	// min-cost generalizations (ρ_w, minimum-cost contingency sets,
	// min-cost responsibility). Unlisted tuples cost 1, so a nil/empty map
	// is the plain cardinality task. Every named tuple must exist in the
	// database; every cost must be >= 1. The costs of the tuples that occur
	// in the query's witnesses, unlisted ones counted at 1, must total at
	// most 2^62 (bad_request otherwise), so no cost sum overflows.
	Weights map[string]int64 `json:"weights,omitempty"`
	// Gamma is the claimed contingency set of a verify_contingency task.
	Gamma []string `json:"gamma,omitempty"`
	// FromVersion resumes a watch task: when the database is already at
	// exactly this version, the initial snapshot line is suppressed and
	// only subsequent changes are emitted (reconnecting clients have seen
	// that state). 0 (or any non-matching version) emits the snapshot.
	FromVersion uint64 `json:"from_version,omitempty"`
	// MaxEvents, when positive, ends a watch task after that many emitted
	// change lines (the final line then carries the totals). 0 watches
	// until the connection or context ends.
	MaxEvents int `json:"max_events,omitempty"`
	// TimeoutMS, when positive, bounds the task's wall time. Servers may
	// only tighten it (their per-request budget wins when smaller).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Validate checks the envelope's shape: known kind, query present, and the
// kind's required fields set. needDB additionally requires DB to be named
// (the wire surface resolves databases by name; in-process callers passing
// a *Database directly validate with needDB=false).
func (t Task) Validate(needDB bool) *Error {
	if !t.Kind.Valid() {
		return Errorf(CodeBadRequest, "unknown task kind %q", t.Kind)
	}
	if t.Query == "" {
		return Errorf(CodeBadRequest, "%s task: query must be non-empty", t.Kind)
	}
	if needDB && t.Kind != KindClassify && t.DB == "" {
		return Errorf(CodeBadRequest, "%s task: db must name a registered database", t.Kind)
	}
	switch t.Kind {
	case KindResponsibility:
		if t.Tuple == "" {
			return Errorf(CodeBadRequest, "responsibility task: tuple must be non-empty")
		}
	case KindDecide:
		if t.K < 0 {
			return Errorf(CodeBadRequest, "decide task: k must be >= 0")
		}
	case KindWatch:
		if t.MaxEvents < 0 {
			return Errorf(CodeBadRequest, "watch task: max_events must be >= 0")
		}
	case KindTopKResponsibility:
		if t.K < 1 {
			return Errorf(CodeBadRequest, "top_k_responsibility task: k must be >= 1")
		}
	}
	if len(t.Weights) > 0 {
		switch t.Kind {
		case KindSolve, KindEnumerate, KindResponsibility, KindTopKResponsibility:
		default:
			return Errorf(CodeBadRequest, "%s task: weights are not supported for this kind", t.Kind)
		}
		for fact, w := range t.Weights {
			if w < 1 {
				return Errorf(CodeBadRequest, "%s task: weight of %s must be >= 1, got %d", t.Kind, fact, w)
			}
		}
	}
	return nil
}

// ClassifyComponent is one connected component's verdict inside a classify
// result (Lemma 15: the hardest component decides).
type ClassifyComponent struct {
	Normalized string `json:"normalized"`
	Verdict    string `json:"verdict"`
	Rule       string `json:"rule"`
}

// Result is the single response envelope: the union of every task kind's
// answer, discriminated by Kind like the Task that produced it. Exactly
// the fields of the task's kind are populated; everything else is omitted
// from the JSON encoding.
//
// In a streamed (NDJSON) response, lines with Partial set carry incremental
// payload — for enumerate, one contingency set per line in Sets — and the
// final line (Partial unset) carries the totals.
type Result struct {
	// ID echoes the task's correlation id; Index is the task's position in
	// its batch (0 for single-task requests).
	ID    string `json:"id,omitempty"`
	Index int    `json:"index,omitempty"`
	// Kind echoes the task kind.
	Kind Kind `json:"kind"`
	// Partial marks an incremental stream line; more lines follow for the
	// same task.
	Partial bool `json:"partial,omitempty"`

	// Rho is ρ(q, D) (solve, enumerate) or the minimum contingency size
	// context of the kind; it is always encoded because 0 is a valid
	// answer. On a weighted task it is ρ_w, the minimum total cost (int64
	// Cost truncated to int — Cost is authoritative for weighted answers).
	Rho int `json:"rho"`
	// Cost is ρ_w, the minimum total deletion cost of a weighted solve or
	// enumerate (equal to Rho on unweighted tasks, where it is omitted).
	Cost int64 `json:"cost,omitempty"`
	// Method names the algorithm that produced a solve result.
	Method string `json:"method,omitempty"`
	// Witnesses is the number of witnesses enumerated by a solve.
	Witnesses int `json:"witnesses,omitempty"`
	// Contingency is one optimal contingency set (solve, responsibility),
	// rendered as "R(a,b)" fact strings.
	Contingency []string `json:"contingency,omitempty"`
	// Unbreakable means no endogenous deletion can falsify the query: a
	// definite answer (ρ = ∞), not an error.
	Unbreakable bool `json:"unbreakable,omitempty"`

	// Classification of the task's query (classify always; solve when the
	// engine classified the instance).
	Verdict     string              `json:"verdict,omitempty"`
	Rule        string              `json:"rule,omitempty"`
	Normalized  string              `json:"normalized,omitempty"`
	Algorithm   string              `json:"algorithm,omitempty"`
	Certificate string              `json:"certificate,omitempty"`
	Components  []ClassifyComponent `json:"components,omitempty"`

	// Sets holds minimum contingency sets (enumerate). A streamed partial
	// line carries exactly one set; the final line carries none and Total
	// counts what was streamed.
	Sets  [][]string `json:"sets,omitempty"`
	Total int        `json:"total,omitempty"`

	// Responsibility fields: the probe tuple, its minimum contingency size
	// K, the score 1/(1+K), and whether no contingency makes it a
	// counterfactual cause.
	Tuple             string  `json:"tuple,omitempty"`
	K                 int     `json:"k,omitempty"`
	Responsibility    float64 `json:"responsibility,omitempty"`
	NotCounterfactual bool    `json:"not_counterfactual,omitempty"`

	// Ranked holds the ranked tuples of a top_k_responsibility task. A
	// streamed partial line carries exactly one entry; the final line
	// carries none and Total counts what was streamed.
	Ranked []RankedTuple `json:"ranked,omitempty"`

	// Holds answers a decide task: (D, K) ∈ RES(q).
	Holds bool `json:"holds,omitempty"`

	// Valid answers a verify_contingency task; Reason explains a failed
	// verification.
	Valid  bool   `json:"valid,omitempty"`
	Reason string `json:"reason,omitempty"`

	// Version is the database version a watch line reflects; with the
	// database name it identifies the exact contents behind the answer.
	Version uint64 `json:"version,omitempty"`
	// ChangedComponents counts the connected components of the witness
	// hypergraph with no content-identical counterpart before the mutation
	// — the components the delta actually dirtied. 0 when no comparison
	// was possible (first snapshot, or no cached IR to diff against).
	ChangedComponents int `json:"changed_components,omitempty"`

	// CacheHit reports whether the classification came from the engine's
	// isomorphism cache; ElapsedMS is the task's wall time.
	CacheHit  bool    `json:"cache_hit,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`

	// Error carries a per-task failure inside batch and stream responses,
	// where the transport status covers the envelope, not each task.
	Error *Error `json:"error,omitempty"`
}

// RankedTuple is one entry of a top_k_responsibility ranking. Field names
// mirror the responsibility Result fields (tuple, k, responsibility,
// contingency) so a rank-1 entry under unit weights reads exactly like the
// corresponding responsibility answer.
type RankedTuple struct {
	// Rank is the 0-based position in the ranking.
	Rank int `json:"rank"`
	// Tuple is the ranked tuple in fact notation.
	Tuple string `json:"tuple"`
	// K is the tuple's minimum contingency size (total cost on weighted
	// tasks); it is always encoded because 0 is a valid answer.
	K int64 `json:"k"`
	// Responsibility is the score 1/(1+K).
	Responsibility float64 `json:"responsibility"`
	// Contingency is one optimal contingency set (omitted when K == 0).
	Contingency []string `json:"contingency,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: many tasks solved
// concurrently on the server's worker pool. TimeoutMS, when positive, is a
// default applied to tasks that do not set their own.
type BatchRequest struct {
	Tasks     []Task `json:"tasks"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// BatchResponse is the non-streamed body of POST /v1/batch: one Result per
// task, index-aligned with the request. Per-task failures are carried in
// Result.Error; the HTTP status covers only the envelope.
type BatchResponse struct {
	Results []*Result `json:"results"`
}

// ErrorBody is the body of every non-2xx v1 response.
type ErrorBody struct {
	Error *Error `json:"error"`
}

// DBInfo describes a registered database: the body of PUT/GET /v1/db/{name}
// and the elements of GET /v1/db.
type DBInfo struct {
	Name string `json:"name"`
	// Tuples and Constants are totals; Relations maps relation name to its
	// tuple count.
	Tuples    int            `json:"tuples"`
	Constants int            `json:"constants"`
	Relations map[string]int `json:"relations"`
	// Version is the database's mutation counter; together with the name
	// it identifies the contents a cached IR was built from.
	Version uint64 `json:"version"`
}

// MutationOp discriminates the two tuple-level database changes.
type MutationOp string

const (
	// MutationInsert adds a tuple; inserting a tuple already present is a
	// bad_tuple error (the batch is rejected atomically).
	MutationInsert MutationOp = "insert"
	// MutationDelete removes a tuple; deleting a tuple not present is a
	// bad_tuple error (the batch is rejected atomically).
	MutationDelete MutationOp = "delete"
)

// Mutation is one tuple-level change in a PATCH /v1/db/{name} batch.
type Mutation struct {
	// Op is "insert" or "delete".
	Op MutationOp `json:"op"`
	// Fact is the tuple in fact notation, e.g. "R(a,b)".
	Fact string `json:"fact"`
}

// MutateRequest is the body of PATCH /v1/db/{name}: an ordered batch of
// mutations applied atomically — either every mutation applies and the
// database moves to a new version, or none do and the registered contents
// are unchanged.
type MutateRequest struct {
	Mutations []Mutation `json:"mutations"`
}

// MutateResponse is the success body of PATCH /v1/db/{name}: the database's
// post-batch info (its Version reflects every applied mutation) plus the
// number of mutations applied.
type MutateResponse struct {
	DBInfo
	Applied int `json:"applied"`
}

// JobState is the lifecycle state of an async job.
type JobState string

const (
	// JobQueued: accepted, waiting for a job worker.
	JobQueued JobState = "queued"
	// JobRunning: executing on a job worker.
	JobRunning JobState = "running"
	// JobDone: finished with a Result.
	JobDone JobState = "done"
	// JobFailed: finished with an Error.
	JobFailed JobState = "failed"
	// JobCanceled: canceled before or during execution.
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is the wire view of an async task submission (POST /v1/jobs): the
// task it runs, its lifecycle state, and — once terminal — its Result or
// Error.
type Job struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Task  Task     `json:"task"`
	// Result is set when State is "done"; Error when "failed" (and on
	// canceled jobs that observed the cancellation mid-solve).
	Result *Result `json:"result,omitempty"`
	Error  *Error  `json:"error,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// JobList is the body of GET /v1/jobs.
type JobList struct {
	Jobs []*Job `json:"jobs"`
}
