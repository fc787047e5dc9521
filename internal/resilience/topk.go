package resilience

import (
	"context"
	"slices"
	"strings"

	"repro/internal/ctxpoll"
	"repro/internal/db"
	"repro/internal/witset"
)

// WeightedResponsibilityOnInstance is ResponsibilityOnInstance generalized
// to per-tuple deletion costs: the returned k is the minimum total cost of
// a contingency set making t a counterfactual cause (the responsibility
// score is then 1/(1+k)). On an unweighted instance it delegates to the
// cardinality computation, so uniform weights agree with it by
// construction.
func WeightedResponsibilityOnInstance(ctx context.Context, inst *witset.Instance, d *db.Database, t db.Tuple) (int64, []db.Tuple, error) {
	if inst.Weights() == nil {
		k, gamma, err := ResponsibilityOnInstance(ctx, inst, d, t)
		return int64(k), gamma, err
	}
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
		return 0, nil, ErrNotCounterfactual
	}

	poll := ctxpoll.New(ctx)
	localK, localGamma, err := responsibilityInFamilyWeighted(ctx, poll, home.Fam, localT)
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
		size, ids, err := solveFamilyWeighted(ctx, c.Fam, -1, Options{})
		if err != nil {
			return 0, nil, err
		}
		k += size
		gammaIDs = append(gammaIDs, c.ToGlobal(ids)...)
	}
	if k == 0 {
		return 0, nil, nil
	}
	return k, inst.TupleSet(gammaIDs), nil
}

// responsibilityInFamilyWeighted is the min-cost twin of
// responsibilityInFamily: same surviving-witness loop, with budgets and the
// per-candidate hitting-set solves in total-cost terms (costs from fam.W).
// Returns k = -1 when no candidate is feasible.
func responsibilityInFamilyWeighted(ctx context.Context, poll *ctxpoll.Poller, fam *witset.Family, tid int32) (int64, []int32, error) {
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
			return 0, nil, nil
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
		hs := newWeightedHittingSet(subFam)
		hs.poll = poll
		cost, chosen := hs.solve(budget)
		if err := poll.Err(); err != nil {
			return 0, nil, err
		}
		if chosen == nil {
			continue // exceeded budget
		}
		if best < 0 || cost < best {
			best = cost
			bestGamma = chosen
		}
	}
	return best, bestGamma, nil
}

// RankedTuple is one entry of a top-k responsibility ranking: a tuple, the
// minimum contingency cost k making it counterfactual (cardinality on
// unweighted instances, total cost on weighted ones; the responsibility
// score is 1/(1+k)), and one optimal contingency set (nil when k == 0).
type RankedTuple struct {
	Tuple db.Tuple
	K     int64
	Gamma []db.Tuple
}

// TopKResponsibilityOnInstance ranks the k most responsible tuples of the
// instance: every tuple of the witness universe gets its responsibility
// computed off the one shared IR, and the k smallest-k tuples are returned
// in rank order (k ascending — higher responsibility first — with ties
// broken by the rendered tuple string, so the order is deterministic and
// matches the canonical wire encoding). k <= 0 or k larger than the
// universe returns the full ranking. Tuples that are not counterfactual
// under any contingency are excluded; exogenous tuples never enter the
// witness universe in the first place. An unbreakable instance returns
// ErrUnbreakable (no tuple can ever be counterfactual).
//
// The ranking amortizes the shared work instead of running NumTuples
// independent responsibility solves: each component's plain minimum hitting
// set is solved once and reused as the "other components" contribution of
// every probe — per tuple, only the in-component surviving-witness loop
// runs fresh. Results are identical to per-tuple
// (Weighted)ResponsibilityOnInstance calls by construction: both assemble
// k as in-component k plus the same per-component minima.
func TopKResponsibilityOnInstance(ctx context.Context, inst *witset.Instance, d *db.Database, k int) ([]RankedTuple, error) {
	var out []RankedTuple
	_, err := TopKResponsibilityFunc(ctx, inst, d, k, func(_ int, rt RankedTuple) error {
		out = append(out, rt)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TopKResponsibilityFunc is the streaming form of
// TopKResponsibilityOnInstance: emit receives each ranked tuple in rank
// order (rank is 0-based) as soon as the ranking is known, and an emit
// error aborts the emission and is returned unchanged. It returns the
// number of entries emitted. Streamed order and collected order are
// identical by construction — both walk the same sorted ranking.
func TopKResponsibilityFunc(ctx context.Context, inst *witset.Instance, d *db.Database, k int, emit func(rank int, rt RankedTuple) error) (int, error) {
	if inst.Unbreakable() {
		return 0, ErrUnbreakable
	}
	weighted := inst.Weights() != nil
	comps := inst.Components()
	poll := ctxpoll.New(ctx)

	// Shared work: every component's plain minimum, solved once. A probe
	// into component c costs (in-component k) + Σ_{c' ≠ c} minCost[c'].
	minCost := make([]int64, len(comps))
	minIDs := make([][]int32, len(comps))
	totalMin := int64(0)
	for i, c := range comps {
		var (
			cost int64
			ids  []int32
			err  error
		)
		if weighted {
			cost, ids, err = solveFamilyWeighted(ctx, c.Fam, -1, Options{})
		} else {
			var size int
			size, ids, err = solveFamily(ctx, c.Fam, -1, Options{})
			cost = int64(size)
		}
		if err != nil {
			return 0, err
		}
		minCost[i] = cost
		minIDs[i] = c.ToGlobal(ids)
		totalMin += cost
	}

	// Rank on (k, rendered tuple) first; only the entries that survive the
	// cut get their contingency set, the in-component Γ plus every other
	// component's minimum set, which is O(ρ) per entry to assemble.
	type entry struct {
		rt    RankedTuple
		key   string
		comp  int
		local []int32
	}
	var entries []entry
	for ci, c := range comps {
		for localT, gid := range c.Global {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			var (
				localK     int64
				localGamma []int32
				err        error
			)
			if weighted {
				localK, localGamma, err = responsibilityInFamilyWeighted(ctx, poll, c.Fam, int32(localT))
			} else {
				var kk int
				kk, localGamma, err = responsibilityInFamily(ctx, poll, c.Fam, int32(localT))
				localK = int64(kk)
			}
			if err != nil {
				return 0, err
			}
			if localK < 0 {
				continue // not counterfactual under any contingency
			}
			t := inst.Tuple(gid)
			entries = append(entries, entry{
				rt:    RankedTuple{Tuple: t, K: localK + totalMin - minCost[ci]},
				key:   d.TupleString(t),
				comp:  ci,
				local: localGamma,
			})
		}
	}

	slices.SortFunc(entries, func(a, b entry) int {
		if a.rt.K != b.rt.K {
			if a.rt.K < b.rt.K {
				return -1
			}
			return 1
		}
		return strings.Compare(a.key, b.key)
	})
	if k > 0 && k < len(entries) {
		entries = entries[:k]
	}
	for i, e := range entries {
		if poll.Cancelled() {
			return i, poll.Err()
		}
		rt := e.rt
		if rt.K > 0 {
			gammaIDs := comps[e.comp].ToGlobal(e.local)
			for oi := range comps {
				if oi != e.comp {
					gammaIDs = append(gammaIDs, minIDs[oi]...)
				}
			}
			rt.Gamma = inst.TupleSet(gammaIDs)
		}
		if err := emit(i, rt); err != nil {
			return i, err
		}
	}
	return len(entries), nil
}
