package resilience

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/witset"
)

// ErrUnbreakable is returned when some witness consists purely of exogenous
// tuples, so no set of endogenous deletions can falsify the query.
var ErrUnbreakable = errors.New("resilience: query cannot be falsified by endogenous deletions")

// Result is the outcome of a resilience computation.
type Result struct {
	// Rho is ρ(q, D), the size of a minimum contingency set.
	Rho int
	// ContingencySet is one optimal contingency set (nil when Rho == 0).
	ContingencySet []db.Tuple
	// Method names the algorithm that produced the result.
	Method string
	// Witnesses is the number of witnesses enumerated.
	Witnesses int
}

// Exact computes ρ(q, D) exactly for any conjunctive query by reducing to
// minimum hitting set over the witnesses' endogenous tuple sets. The
// reduction runs through the kernel+decompose pipeline: the witness family
// is kernelized (unit-row forcing, dominated-tuple elimination), split into
// connected components, and each component is solved independently — the
// component minima add, so one big search becomes several small ones.
func Exact(q *cq.Query, d *db.Database) (*Result, error) {
	return ExactWithBudget(q, d, -1)
}

// ExactWithBudget is Exact with an optional search cutoff: if budget >= 0
// and ρ > budget, the returned Result has Rho = budget+1 and a nil
// contingency set (sufficient for deciding (D,k) ∈ RES(q)).
func ExactWithBudget(q *cq.Query, d *db.Database, budget int) (*Result, error) {
	return exactFiltered(context.Background(), q, d, budget, nil)
}

// ExactCtx is ExactWithBudget with cooperative cancellation: both the
// witness enumeration and the branch-and-bound search poll ctx and abort
// with ctx.Err() once it is done. It is the cancellable entry point used by
// the engine's per-instance timeouts and portfolio racing.
func ExactCtx(ctx context.Context, q *cq.Query, d *db.Database, budget int) (*Result, error) {
	return exactFiltered(ctx, q, d, budget, nil)
}

// ExactFiltered computes the minimum number of endogenous deletions that
// remove every witness accepted by keep (nil keeps all). This generalizes
// resilience to deletion propagation with source side-effects: filtering
// witnesses to those that produce a given output tuple yields exactly the
// minimum source-side deletion for that tuple, with self-joins handled
// soundly because tuple identity is preserved.
func ExactFiltered(q *cq.Query, d *db.Database, keep func(eval.Witness) bool) (*Result, error) {
	return exactFiltered(context.Background(), q, d, -1, keep)
}

func exactFiltered(ctx context.Context, q *cq.Query, d *db.Database, budget int, keep func(eval.Witness) bool) (*Result, error) {
	inst, err := witset.Build(ctx, q, d, keep)
	if err != nil {
		return nil, err
	}
	return exactResult(ctx, inst, budget, "exact", Options{})
}

// ExactOnInstance computes ρ over a prebuilt witness-hypergraph IR, which
// is how callers that already paid for witness enumeration — the engine's
// portfolio, cross-checks against the SAT oracle — avoid enumerating again.
func ExactOnInstance(ctx context.Context, inst *witset.Instance, budget int) (*Result, error) {
	return exactResult(ctx, inst, budget, "exact", Options{})
}

// exactResult is solveInstance reported as a cardinality Result.
func exactResult(ctx context.Context, inst *witset.Instance, budget int, method string, opts Options) (*Result, error) {
	rho, gamma, err := solveInstance(ctx, inst, int64(budget), opts)
	if err != nil {
		return nil, err
	}
	return &Result{Rho: int(rho), ContingencySet: gamma, Method: method, Witnesses: inst.NumWitnesses()}, nil
}

// solveInstance is the one exact-path entry point: every exact API, unit
// or weighted, lands here with an IR in hand. It returns the minimum total
// deletion cost (costs from the instance's weights; ρ on an unweighted
// instance) and one optimal contingency set (nil when the cost is 0). If
// budget >= 0 and the minimum exceeds it, it returns budget+1 and a nil
// set. Unless opts force the monolithic solver, it runs the
// kernel+decompose pipeline: kernelize the normalized family, split the
// kernel into connected components, solve each component independently,
// and assemble the cost as forced + Σ component minima (additivity:
// components share no elements, so hitting sets combine disjointly).
func solveInstance(ctx context.Context, inst *witset.Instance, budget int64, opts Options) (int64, []db.Tuple, error) {
	if inst.Unbreakable() {
		return 0, nil, ErrUnbreakable
	}
	if inst.NumWitnesses() == 0 {
		return 0, nil, nil
	}
	if opts.Monolithic || opts.KeepSupersets {
		// KeepSupersets measures the raw family, which the kernel would
		// immediately re-normalize, so it implies the monolithic path.
		cost, chosen, err := solveFamily(ctx, inst.Family(opts.KeepSupersets), budget, opts)
		if err != nil || chosen == nil {
			return cost, nil, err
		}
		return cost, inst.TupleSet(chosen), nil
	}

	kern, err := inst.KernelCtx(ctx)
	if err != nil {
		return 0, nil, err
	}
	chosen := append([]int32(nil), kern.Forced...)
	cost := int64(0)
	for _, id := range kern.Forced {
		cost += inst.Weight(id)
	}
	if budget >= 0 && cost > budget {
		return budget + 1, nil, nil
	}
	comps := kern.Components()
	for ci, c := range comps {
		b := int64(-1)
		if budget >= 0 {
			// Every component still unsolved needs at least one deletion of
			// cost >= 1 (its family is non-empty), so this component may
			// use at most what remains after reserving 1 per pending
			// sibling.
			b = budget - cost - int64(len(comps)-ci-1)
			if b < 0 {
				return budget + 1, nil, nil
			}
		}
		size, ids, err := solveFamily(ctx, c.Fam, b, opts)
		if err != nil {
			return 0, nil, err
		}
		if b >= 0 && size > b {
			return budget + 1, nil, nil
		}
		cost += size
		chosen = append(chosen, c.ToGlobal(ids)...)
	}
	if cost == 0 {
		return 0, nil, nil
	}
	return cost, inst.TupleSet(chosen), nil
}

// Options are ablation switches for the exact solver, used by the
// benchmark harness and the differential suite to quantify the design
// choices DESIGN.md calls out (packing lower bound, superset elimination,
// and the kernel+decompose pipeline).
type Options struct {
	// DisableLowerBound replaces the disjoint-packing bound by the trivial
	// bound 1 (applies to the monolithic search and to every per-component
	// search alike).
	DisableLowerBound bool
	// DisableLPBound turns off the LP-relaxation dual-greedy bound, leaving
	// whatever DisableLowerBound left of the packing bound. The two switches
	// are independent, so the ablation matrix covers all four corners of the
	// bound hierarchy.
	DisableLPBound bool
	// KeepSupersets skips the superset-elimination preprocessing. It
	// implies Monolithic: the kernel starts from the normalized family.
	KeepSupersets bool
	// Monolithic skips the kernel+decompose pipeline and attacks the whole
	// family with one branch-and-bound, which is both the pre-pipeline
	// behavior and the differential suite's oracle for pipeline ≡
	// monolithic.
	Monolithic bool
}

// ExactWithOptions is Exact with ablation switches; results are identical,
// only the search effort differs.
func ExactWithOptions(q *cq.Query, d *db.Database, opts Options) (*Result, error) {
	inst, err := witset.Build(context.Background(), q, d, nil)
	if err != nil {
		return nil, err
	}
	return exactResult(context.Background(), inst, -1, "exact-ablation", opts)
}

// Decide reports whether (D, k) ∈ RES(q): D |= q and some contingency set
// of size ≤ k exists (Definition 1).
func Decide(q *cq.Query, d *db.Database, k int) (bool, error) {
	return DecideCtx(context.Background(), q, d, k)
}

// DecideCtx is Decide with cooperative cancellation. It routes through the
// witness-hypergraph IR: satisfaction, unbreakability and the budgeted
// search all read one witness enumeration instead of evaluating the query
// separately first.
func DecideCtx(ctx context.Context, q *cq.Query, d *db.Database, k int) (bool, error) {
	inst, err := witset.Build(ctx, q, d, nil)
	if err != nil {
		return false, err
	}
	return DecideOnInstance(ctx, inst, k)
}

// DecideOnInstance decides (D, k) ∈ RES(q) over a prebuilt IR, which is how
// callers holding a cached instance (the engine's cross-request IR cache)
// answer membership queries without re-enumerating witnesses. D |= q is a
// property of the IR: the query is satisfied iff any witness was seen.
func DecideOnInstance(ctx context.Context, inst *witset.Instance, k int) (bool, error) {
	if inst.Unbreakable() {
		return false, ErrUnbreakable
	}
	if inst.NumWitnesses() == 0 {
		return false, nil // D does not satisfy q
	}
	res, err := ExactOnInstance(ctx, inst, k)
	if err != nil {
		return false, err
	}
	return res.Rho <= k, nil
}

// VerifyContingency checks that deleting the given tuples falsifies q on d
// and that all tuples are endogenous and present. It never mutates d: the
// check runs on the witness-hypergraph IR, where a deletion set falsifies
// the query exactly when it hits every witness's endogenous tuple set.
func VerifyContingency(q *cq.Query, d *db.Database, gamma []db.Tuple) error {
	inst, err := witset.Build(context.Background(), q, d, nil)
	if err != nil {
		return err
	}
	return VerifyContingencyOnInstance(inst, d, gamma)
}

// VerifyContingencyOnInstance is VerifyContingency over a prebuilt IR; d
// must be the database the instance was built from (it validates tuple
// presence and renders error messages).
func VerifyContingencyOnInstance(inst *witset.Instance, d *db.Database, gamma []db.Tuple) error {
	q := inst.Query()
	hit := witset.NewBits(inst.NumTuples())
	for _, t := range gamma {
		if q.IsExogenous(t.Rel) {
			return fmt.Errorf("resilience: contingency set contains exogenous tuple %s", d.TupleString(t))
		}
		if !d.Has(t) {
			return fmt.Errorf("resilience: contingency set tuple %s not in database", d.TupleString(t))
		}
		if id, ok := inst.ID(t); ok {
			hit.Set(id)
		}
	}
	if inst.Unbreakable() {
		return errors.New("resilience: query still satisfied after deleting contingency set")
	}
	for _, row := range inst.Rows() {
		rowHit := false
		for _, e := range row {
			if hit.Has(e) {
				rowHit = true
				break
			}
		}
		if !rowHit {
			return errors.New("resilience: query still satisfied after deleting contingency set")
		}
	}
	return nil
}
