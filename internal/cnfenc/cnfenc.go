package cnfenc

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/sat"
	"repro/internal/witset"
)

// ErrUnbreakable mirrors resilience.ErrUnbreakable: some witness consists
// purely of exogenous tuples, so no deletions can falsify the query.
var ErrUnbreakable = errors.New("cnfenc: query cannot be falsified by endogenous deletions")

// Encoding is a CNF rendering of one RES(q, D, k) instance.
type Encoding struct {
	// Formula is satisfiable iff (D, k) ∈ RES(q).
	Formula *sat.Formula
	// Tuples are the candidate endogenous tuples; tuple i corresponds to
	// CNF variable i+1.
	Tuples []db.Tuple
	// K is the cardinality bound of the instance.
	K int
	// Witnesses is the number of witness clauses.
	Witnesses int
}

// Encode builds the CNF instance for (q, d, k). It fails with
// ErrUnbreakable when a witness has no endogenous tuples, and never
// produces a formula for unsatisfiable-query databases: if D does not
// satisfy q the encoding has no witness clauses and is trivially
// satisfiable with zero deletions, matching ρ = 0.
func Encode(q *cq.Query, d *db.Database, k int) (*Encoding, error) {
	if k < 0 {
		return nil, fmt.Errorf("cnfenc: negative budget %d", k)
	}
	inst, err := witset.Build(context.Background(), q, d, nil)
	if err != nil {
		return nil, err
	}
	if inst.Unbreakable() {
		return nil, ErrUnbreakable
	}
	return EncodeInstance(inst, k), nil
}

// EncodeInstance builds the CNF instance from a prebuilt witness-hypergraph
// IR: tuple id i becomes CNF variable i+1, each witness row becomes one
// at-least-one-deleted clause. Callers probing several budgets over the
// same witnesses should use an Encoder, which builds the witness clauses
// once and re-encodes only the cardinality counter per k.
func EncodeInstance(inst *witset.Instance, k int) *Encoding {
	return NewEncoder(inst).Encode(k)
}

// Encoder renders one IR at several cardinality budgets — the engine's SAT
// binary search — sharing the witness clauses across encodings; only the
// Sinz counter differs per k.
type Encoder struct {
	inst *witset.Instance
	fe   *FamilyEncoder
}

// NewEncoder builds the budget-independent part of the encoding: one
// clause per witness row.
func NewEncoder(inst *witset.Instance) *Encoder {
	return &Encoder{inst: inst, fe: newRowsEncoder(inst.Rows(), inst.NumTuples())}
}

// Encode returns the encoding for budget k. The witness clauses are shared
// between encodings (the solver copies clauses it loads).
func (e *Encoder) Encode(k int) *Encoding {
	return &Encoding{
		Formula:   e.fe.Encode(k),
		Tuples:    e.inst.Tuples(),
		K:         k,
		Witnesses: len(e.fe.base),
	}
}

// FamilyEncoder renders one witset.Family — typically a single connected
// component out of the kernel+decompose pipeline — at several cardinality
// budgets. Element e of the family is CNF variable e+1, so component-local
// universes keep both the variable range and the Sinz counter small: a
// component with 20 elements costs a 20-variable counter regardless of how
// big the instance-wide tuple universe is. This is what makes the engine's
// per-component SAT binary search profitable on many-component instances.
type FamilyEncoder struct {
	n    int
	base []sat.Clause
}

// NewFamilyEncoder builds the budget-independent part: one at-least-one-
// deleted clause per row of the family.
func NewFamilyEncoder(fam *witset.Family) *FamilyEncoder {
	return newRowsEncoder(fam.Rows, fam.N)
}

func newRowsEncoder(rows [][]int32, n int) *FamilyEncoder {
	base := make([]sat.Clause, 0, len(rows))
	for _, row := range rows {
		clause := make(sat.Clause, len(row))
		for j, id := range row {
			clause[j] = sat.Literal(int(id) + 1)
		}
		base = append(base, clause)
	}
	return &FamilyEncoder{n: n, base: base}
}

// Encode returns the formula that is satisfiable iff the family has a
// hitting set of size ≤ k. The row clauses are shared between encodings;
// the full-cap reslice makes addAtMostK's appends land in fresh backing, so
// encodings for different budgets do not alias each other's counters.
func (e *FamilyEncoder) Encode(k int) *sat.Formula {
	f := &sat.Formula{NumVars: e.n, Clauses: e.base[:len(e.base):len(e.base)]}
	addAtMostK(f, e.n, k)
	return f
}

// Chosen projects a satisfying assignment back to the chosen element ids,
// sorted ascending.
func (e *FamilyEncoder) Chosen(assign []bool) []int32 {
	var out []int32
	for i := 0; i < e.n; i++ {
		if assign[i+1] {
			out = append(out, int32(i))
		}
	}
	return out
}

// addAtMostK appends the Sinz sequential-counter encoding of
// "at most k of variables 1..n are true" to f, allocating auxiliary
// variables above f.NumVars. For k ≥ n it adds nothing; for k = 0 it adds
// a unit clause ¬x_i per variable.
func addAtMostK(f *sat.Formula, n, k int) {
	if k >= n {
		return
	}
	if k == 0 {
		for i := 1; i <= n; i++ {
			f.Clauses = append(f.Clauses, sat.Clause{sat.Literal(-i)})
		}
		return
	}
	// s(i,j) is true when at least j of x_1..x_i are true; i ∈ [1,n-1],
	// j ∈ [1,k].
	base := f.NumVars
	s := func(i, j int) sat.Literal {
		return sat.Literal(base + (i-1)*k + j)
	}
	f.NumVars += (n - 1) * k
	add := func(lits ...sat.Literal) {
		f.Clauses = append(f.Clauses, sat.Clause(lits))
	}
	x := func(i int) sat.Literal { return sat.Literal(i) }

	add(-x(1), s(1, 1))
	for j := 2; j <= k; j++ {
		add(-s(1, j))
	}
	for i := 2; i <= n-1; i++ {
		add(-x(i), s(i, 1))
		add(-s(i-1, 1), s(i, 1))
		for j := 2; j <= k; j++ {
			add(-x(i), -s(i-1, j-1), s(i, j))
			add(-s(i-1, j), s(i, j))
		}
		add(-x(i), -s(i-1, k))
	}
	add(-x(n), -s(n-1, k))
}

// Gamma projects a satisfying assignment of the encoding's formula back to
// the deleted-tuple set.
func (e *Encoding) Gamma(assign []bool) []db.Tuple {
	var out []db.Tuple
	for i, t := range e.Tuples {
		if assign[i+1] {
			out = append(out, t)
		}
	}
	db.SortTuples(out)
	return out
}

// Decide reports whether (D, k) ∈ RES(q) by SAT solving the encoding.
// Like resilience.Decide it requires D |= q for membership. The returned
// contingency set (when the answer is yes and k > 0) has size ≤ k and is
// guaranteed by construction to falsify the query.
func Decide(q *cq.Query, d *db.Database, k int) (bool, []db.Tuple, error) {
	return DecideCtx(context.Background(), q, d, k)
}

// DecideCtx is Decide with cooperative cancellation: the CDCL search polls
// ctx and aborts with ctx.Err() once it is done, which is what lets the
// engine's portfolio cancel a losing SAT attempt promptly. The instance is
// rendered through the persistent-solver path (row clauses plus an
// assumption-gated counter capped at k), the same machinery the engine's
// budget binary search probes repeatedly.
func DecideCtx(ctx context.Context, q *cq.Query, d *db.Database, k int) (bool, []db.Tuple, error) {
	if !eval.Satisfied(q, d) {
		return false, nil, nil
	}
	if k < 0 {
		return false, nil, fmt.Errorf("cnfenc: negative budget %d", k)
	}
	inst, err := witset.Build(ctx, q, d, nil)
	if err != nil {
		return false, nil, err
	}
	if inst.Unbreakable() {
		return false, nil, ErrUnbreakable
	}
	inc := NewIncrementalSolver(&witset.Family{N: inst.NumTuples(), Rows: inst.Rows()}, k)
	assign, ok, err := inc.SolveBudget(ctx, k)
	if err != nil {
		return false, nil, err
	}
	if !ok {
		return false, nil, nil
	}
	var gamma []db.Tuple
	for _, id := range inc.Chosen(assign) {
		gamma = append(gamma, inst.Tuple(id))
	}
	db.SortTuples(gamma)
	return true, gamma, nil
}
