package resilience

import (
	"context"
	"slices"
	"strings"

	"repro/internal/ctxpoll"
	"repro/internal/db"
	"repro/internal/witset"
)

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
// runs fresh. Results are identical to per-tuple ResponsibilityOnInstance
// calls by construction: both assemble k as in-component k plus the same
// per-component minima.
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
	comps := inst.Components()
	poll := ctxpoll.New(ctx)

	// Shared work: every component's plain minimum, solved once. A probe
	// into component c costs (in-component k) + Σ_{c' ≠ c} minCost[c'].
	minCost := make([]int64, len(comps))
	minIDs := make([][]int32, len(comps))
	totalMin := int64(0)
	for i, c := range comps {
		cost, ids, err := solveFamily(ctx, c.Fam, -1, Options{})
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
			localK, localGamma, err := responsibilityInFamily(ctx, poll, c.Fam, int32(localT))
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
