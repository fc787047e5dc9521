package resilience

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cq"
	"repro/internal/ctxpoll"
	"repro/internal/db"
	"repro/internal/witset"
)

// Responsibility implements the causality notion the paper builds on
// (Meliou, Gatterbauer, Moore, Suciu [31], cited in Sections 1 and 10):
// an endogenous tuple t is a counterfactual cause of D |= q under
// contingency Γ when D−Γ still satisfies q but D−Γ−{t} does not. The
// responsibility of t is 1/(1+k) for the minimum such |Γ| = k; this
// function returns that k together with one optimal contingency set.
//
// Characterization on the witness family: D−Γ−{t} ̸|= q forces Γ to hit
// every witness not containing t, and D−Γ |= q requires some witness
// containing t to survive Γ untouched. So
//
//	k = min over witnesses w ∋ t of
//	    (minimum hitting set of {witnesses without t} avoiding w's tuples)
//
// which reuses the exact solver's branch-and-bound hitting machinery with
// a per-candidate forbidden set. ErrNotCounterfactual is returned when no
// contingency makes t counterfactual (t participates in no witness, or
// every choice of surviving witness forces an unbreakable remainder).
var ErrNotCounterfactual = errors.New("resilience: tuple is not a counterfactual cause under any contingency")

// Responsibility returns the minimum contingency size k making t a
// counterfactual cause of D |= q, and one optimal contingency set.
//
// It operates on the witness-hypergraph IR: t is endogenous, so a witness
// uses t exactly when t is in its endogenous tuple set, and the with-t /
// without-t split is a partition of the IR's rows.
func Responsibility(q *cq.Query, d *db.Database, t db.Tuple) (int, []db.Tuple, error) {
	return ResponsibilityCtx(context.Background(), q, d, t)
}

// ResponsibilityCtx is Responsibility with cooperative cancellation: both
// the witness enumeration and the per-candidate hitting-set searches poll
// ctx and abort with ctx.Err() once it is done.
func ResponsibilityCtx(ctx context.Context, q *cq.Query, d *db.Database, t db.Tuple) (int, []db.Tuple, error) {
	// Fail on bad probes before paying for witness enumeration; the same
	// checks in ResponsibilityOnInstance guard callers arriving with a
	// prebuilt (possibly cached) IR.
	if err := validateProbe(q, d, t); err != nil {
		return 0, nil, err
	}
	inst, err := witset.Build(ctx, q, d, nil)
	if err != nil {
		return 0, nil, err
	}
	k, gamma, err := ResponsibilityOnInstance(ctx, inst, d, t)
	return int(k), gamma, err
}

// validateProbe rejects probe tuples that can never be causes for
// structural reasons: exogenous relations and absent tuples.
func validateProbe(q *cq.Query, d *db.Database, t db.Tuple) error {
	if q.IsExogenous(t.Rel) {
		return fmt.Errorf("resilience: %s is exogenous; only endogenous tuples can be causes", d.TupleString(t))
	}
	if !d.Has(t) {
		return fmt.Errorf("resilience: tuple %s not in database", d.TupleString(t))
	}
	return nil
}

// ResponsibilityOnInstance computes responsibility over a prebuilt
// witness-hypergraph IR, which is how the serving layer reuses one cached
// IR across many responsibility probes against the same (query, database)
// pair. d must be the database the instance was built from. On an instance
// carrying per-tuple deletion costs the returned k is the minimum total
// cost of a contingency set making t counterfactual (the responsibility
// score is then 1/(1+k)); unweighted, it is the minimum size.
//
// The computation rides the decompose pipeline: t lives in exactly one
// connected component of the normalized family, the surviving-witness
// choice and its forbidden set only constrain that component, and every
// other component just needs its rows hit — contributing its plain minimum
// hitting set. So k = (in-component responsibility) + Σ other components'
// minima, with the candidate loop running over a component instead of the
// whole family.
func ResponsibilityOnInstance(ctx context.Context, inst *witset.Instance, d *db.Database, t db.Tuple) (int64, []db.Tuple, error) {
	if err := validateProbe(inst.Query(), d, t); err != nil {
		return 0, nil, err
	}
	if inst.Unbreakable() {
		// A witness with no endogenous tuples can never be hit: t can never
		// become counterfactual.
		return 0, nil, ErrNotCounterfactual
	}
	tid, ok := inst.ID(t)
	if !ok {
		return 0, nil, ErrNotCounterfactual // t participates in no witness
	}

	comps := inst.Components()
	var home *witset.Component
	var localT int32
	for _, c := range comps {
		if lid, ok := searchGlobal(c.Global, tid); ok {
			home, localT = c, lid
			break
		}
	}
	if home == nil {
		// Every row containing t was a superset of some kept row without t:
		// any Γ avoiding a surviving witness w ∋ t would fail to hit w's
		// kept subset, so t can never be counterfactual.
		return 0, nil, ErrNotCounterfactual
	}

	poll := ctxpoll.New(ctx)
	localK, localGamma, err := responsibilityInFamily(ctx, poll, home.Fam, localT)
	if err != nil {
		return 0, nil, err
	}
	if localK < 0 {
		return 0, nil, ErrNotCounterfactual
	}
	k := localK
	gammaIDs := home.ToGlobal(localGamma)
	for _, c := range comps {
		if c == home {
			continue
		}
		size, ids, err := solveFamily(ctx, c.Fam, -1, Options{})
		if err != nil {
			return 0, nil, err
		}
		k += size
		gammaIDs = append(gammaIDs, c.ToGlobal(ids)...)
	}
	if k == 0 {
		return 0, nil, nil // t is counterfactual with the empty contingency
	}
	return k, inst.TupleSet(gammaIDs), nil
}

// responsibilityInFamily runs the per-candidate surviving-witness loop over
// one family: for each row containing t, forbid its elements and solve the
// minimum-cost hitting set of the remaining t-free rows (costs from
// fam.W). Returns k = -1 when no candidate is feasible (t is not
// counterfactual within this family).
func responsibilityInFamily(ctx context.Context, poll *ctxpoll.Poller, fam *witset.Family, tid int32) (int64, []int32, error) {
	var withT, withoutT [][]int32
	for _, row := range fam.Rows {
		uses := false
		for _, e := range row {
			if e == tid {
				uses = true
				break
			}
		}
		if uses {
			withT = append(withT, row)
		} else {
			withoutT = append(withoutT, row)
		}
	}
	if len(withT) == 0 {
		return -1, nil, nil
	}

	forbidden := witset.NewBits(fam.N)
	best := int64(-1)
	var bestGamma []int32
	for _, surviving := range withT {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		// Forbid the surviving witness's tuples: drop them from every
		// row. A row left empty is unhittable for this choice.
		forbidden.Clear()
		for _, e := range surviving {
			forbidden.Set(e)
		}
		sub := make([][]int32, 0, len(withoutT))
		feasible := true
		for _, row := range withoutT {
			kept := make([]int32, 0, len(row))
			for _, e := range row {
				if !forbidden.Has(e) {
					kept = append(kept, e)
				}
			}
			if len(kept) == 0 {
				feasible = false
				break
			}
			sub = append(sub, kept)
		}
		if !feasible {
			continue
		}
		if len(sub) == 0 {
			return 0, nil, nil // empty contingency suffices within this family
		}
		budget := int64(-1)
		if best >= 0 {
			budget = best - 1
			if budget < 0 {
				break
			}
		}
		subFam := witset.NewFamily(sub, fam.N, false)
		subFam.W = fam.W // same universe, so the costs carry over
		hs := newHittingSet(subFam)
		hs.poll = poll
		size, chosen := hs.solve(budget)
		if err := poll.Err(); err != nil {
			return 0, nil, err
		}
		if chosen == nil {
			continue // exceeded budget
		}
		if best < 0 || size < best {
			best = size
			bestGamma = chosen
		}
	}
	return best, bestGamma, nil
}

// responsibilityMonolithic is the pre-pipeline computation over the raw
// rows of the whole instance, kept as the differential suite's oracle for
// pipeline ≡ monolithic parity.
func responsibilityMonolithic(ctx context.Context, inst *witset.Instance, d *db.Database, t db.Tuple) (int64, []db.Tuple, error) {
	if err := validateProbe(inst.Query(), d, t); err != nil {
		return 0, nil, err
	}
	if inst.Unbreakable() {
		return 0, nil, ErrNotCounterfactual
	}
	tid, ok := inst.ID(t)
	if !ok {
		return 0, nil, ErrNotCounterfactual
	}
	poll := ctxpoll.New(ctx)
	rawFam := &witset.Family{N: inst.NumTuples(), Rows: inst.Rows(), W: inst.Weights()}
	k, gammaIDs, err := responsibilityInFamily(ctx, poll, rawFam, tid)
	if err != nil {
		return 0, nil, err
	}
	if k < 0 {
		return 0, nil, ErrNotCounterfactual
	}
	if k == 0 {
		return 0, nil, nil
	}
	return k, inst.TupleSet(gammaIDs), nil
}

// searchGlobal locates global id g in a component's sorted Global slice,
// returning its local id.
func searchGlobal(global []int32, g int32) (int32, bool) {
	lo, hi := 0, len(global)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case global[mid] == g:
			return int32(mid), true
		case global[mid] < g:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}
