package resilience

import (
	"context"
	"math"

	"repro/internal/ctxpoll"
	"repro/internal/witset"
)

// solveFamily runs the branch-and-bound once over one family, in total-cost
// terms (costs from fam.W; a unit family, W == nil, makes cost the
// cardinality). If budget >= 0 and the minimum exceeds it, the returned
// cost is budget+1 with a nil set (sufficient for callers that only need
// the "over budget" verdict). Only the bound ablation switches of opts
// apply here; decomposition switches are the caller's concern.
func solveFamily(ctx context.Context, fam *witset.Family, budget int64, opts Options) (int64, []int32, error) {
	hs := newHittingSet(fam)
	hs.noLowerBound = opts.DisableLowerBound
	hs.noLPBound = opts.DisableLPBound
	hs.poll = ctxpoll.New(ctx)
	cost, chosen := hs.solve(budget)
	if err := hs.poll.Err(); err != nil {
		return 0, nil, err
	}
	return cost, chosen, nil
}

// SolveFamily computes a minimum-cost hitting set of fam exactly (costs
// from fam.W; 1 each when nil), returning its total cost and one optimal
// set of element ids. It is the per-component building block of the
// kernel+decompose pipeline, exported for the engine's component-parallel
// portfolio (which races it against SAT binary search on each component).
// If budget >= 0 and the minimum exceeds it, it returns (budget+1, nil,
// nil).
func SolveFamily(ctx context.Context, fam *witset.Family, budget int64) (int64, []int32, error) {
	return solveFamily(ctx, fam, budget, Options{})
}

// SolveFamilyWeighted is SolveFamily, kept under the name the service
// benchmark's traced replay times weighted components with.
func SolveFamilyWeighted(ctx context.Context, fam *witset.Family, budget int64) (int64, []int32, error) {
	return SolveFamily(ctx, fam, budget)
}

// hittingSet solves minimum-cost hitting set exactly by branch and bound
// over a witset.Family: find a cheapest set of elements intersecting every
// row. Element e costs w[e]; w is nil on a unit family, where every
// element costs 1 and the cost of a set is its size.
//
// Resilience is exactly this problem with rows = per-witness endogenous
// tuple sets (Definition 1), so this solver is the trusted oracle for every
// query, easy or hard; with per-tuple costs it answers the min-cost
// generalization, the cost model of deletion propagation. Every bound
// generalizes to costs: the packing bound charges each packed row its
// cheapest element, the LP bound gives element e dual capacity w[e], and
// the greedy incumbent maximizes coverage per cost (DESIGN.md §2.1). The
// family's bitset rows make the hot operations word-parallel: the
// disjoint-packing lower bound tests and merges whole rows with AND/OR
// over packed words instead of a per-branch-node map[int32]bool, and its
// scratch bitset is reset in one word-store per 64 universe elements
// rather than reallocated.
type hittingSet struct {
	fam *witset.Family // costs from fam.W; nil: unit costs

	hitCount []int32 // how many chosen elements hit each row
	chosen   witset.Bits
	numUnhit int

	best       int64
	bestChosen []int32

	// pack is the lower bound's scratch: the union of the rows packed so
	// far. One allocation per solve, cleared per call.
	pack witset.Bits

	// lpCap and lpDeg are the LP bound's scratch: the remaining dual
	// capacity of each element and each element's occurrence count among
	// the unhit rows. One allocation per solve, reset per call.
	lpCap []float64
	lpDeg []int32

	// Ablation switches (see Options): disable the packing lower bound
	// and/or the LP dual-greedy bound to measure their contributions.
	noLowerBound bool
	noLPBound    bool

	// poll, when non-nil, lets callers cancel long searches; its Err
	// records why the search stopped early (the best found so far is then
	// meaningless).
	poll *ctxpoll.Poller
}

func newHittingSet(fam *witset.Family) *hittingSet {
	return &hittingSet{
		fam:      fam,
		hitCount: make([]int32, len(fam.Rows)),
		chosen:   witset.NewBits(fam.N),
		numUnhit: len(fam.Rows),
		pack:     witset.NewBits(fam.N),
		lpCap:    make([]float64, fam.N),
		lpDeg:    make([]int32, fam.N),
	}
}

// solve returns the minimum hitting set cost and one optimal solution.
// If limit >= 0 and every solution costs more than limit, it returns
// (limit+1, nil).
func (h *hittingSet) solve(limit int64) (int64, []int32) {
	// The greedy upper bound initializes best.
	greedy := h.greedy()
	h.best = 0
	for _, e := range greedy {
		h.best += h.fam.Cost(e)
	}
	h.bestChosen = greedy
	if limit >= 0 && h.best > limit+1 {
		h.best = limit + 1
		h.bestChosen = nil
	}
	var cur []int32
	h.branch(cur, 0, 0)
	return h.best, h.bestChosen
}

// greedy computes the coverage-per-cost upper bound that seeds the
// incumbent. The shared implementation maintains element-occurrence counts
// decrementally — built once, then selecting an element pays only for the
// rows it newly hits — instead of recounting every unhit row per
// iteration; values and tie-breaking are identical to a full recount, so
// the bound (and therefore the search it seeds) is unchanged.
func (h *hittingSet) greedy() []int32 {
	return witset.GreedyHittingSet(h.fam)
}

// branch explores extensions of cur, whose elements cost curCost in total.
// from is the lowest row index that may still be unhit: every row before
// it was hit when this node was entered, and choose() only ever adds hits
// down the tree, so those rows stay hit in the whole subtree and the
// smallest-unhit-row scan can skip them. The pick is exactly the one a
// from-zero scan would make; only the rescan cost changes (amortized O(1)
// per node instead of O(rows)).
func (h *hittingSet) branch(cur []int32, curCost int64, from int) {
	if h.poll.Cancelled() {
		return
	}
	if h.numUnhit == 0 {
		if curCost < h.best {
			h.best = curCost
			h.bestChosen = append([]int32(nil), cur...)
		}
		return
	}
	lb := int64(1)
	if !h.noLowerBound {
		lb = h.lowerBound()
	}
	if curCost+lb >= h.best {
		return
	}
	// The packing bound failed to prune; try the (costlier) LP-relaxation
	// bound before committing to a branch. Taking the max keeps the bound
	// hierarchy monotone: the node survives only if both bounds allow it.
	if !h.noLPBound {
		if lp := h.lpBound(); curCost+lp >= h.best {
			return
		}
	}
	// Branch on the smallest unhit row; rows are sorted by size, so the
	// first unhit one is a smallest — and rows before from are known hit.
	pick := -1
	for si := from; si < len(h.fam.Rows); si++ {
		if h.hitCount[si] == 0 {
			pick = si
			break
		}
	}
	for _, e := range h.fam.Rows[pick] {
		if h.chosen.Has(e) {
			continue
		}
		h.choose(e)
		// Choosing e hits row pick, so the child's first candidate unhit
		// row is pick+1.
		h.branch(append(cur, e), curCost+h.fam.Cost(e), pick+1)
		h.unchoose(e)
	}
}

func (h *hittingSet) choose(e int32) {
	h.chosen.Set(e)
	for _, si := range h.fam.Occ[e] {
		h.hitCount[si]++
		if h.hitCount[si] == 1 {
			h.numUnhit--
		}
	}
}

func (h *hittingSet) unchoose(e int32) {
	h.chosen.Unset(e)
	for _, si := range h.fam.Occ[e] {
		h.hitCount[si]--
		if h.hitCount[si] == 0 {
			h.numUnhit++
		}
	}
}

// lowerBound greedily packs pairwise-disjoint unhit rows; each needs a
// distinct element, costing at least the row's cheapest member (1 on a
// unit family, where no row is scanned), giving an admissible bound.
// Disjointness against the pack so far is one AND sweep over the row's
// words, and merging is one OR sweep — the word-parallel replacement for
// the old per-call element map.
func (h *hittingSet) lowerBound() int64 {
	w := h.fam.W
	h.pack.Clear()
	lb := int64(0)
	for si, bits := range h.fam.Bits {
		if h.hitCount[si] > 0 {
			continue
		}
		if witset.Disjoint(bits, h.pack) {
			h.pack.Or(bits)
			if w == nil {
				lb++
				continue
			}
			cheapest := int64(math.MaxInt64)
			for _, e := range h.fam.Rows[si] {
				if w[e] < cheapest {
					cheapest = w[e]
				}
			}
			lb += cheapest
		}
	}
	return lb
}

// lpBound is a dual feasible bound on the LP relaxation of hitting set over
// the unhit rows — a fractional packing: assign each unhit row a dual value
// y_row with Σ_{row ∋ e} y_row ≤ w[e] for every element e; any such
// assignment has Σ y_row ≤ LP optimum ≤ integral minimum. Two phases build
// the duals:
//
//  1. Uniform split: y_row = min_{e ∈ row} w[e]/deg(e), where deg counts
//     the element's occurrences among unhit rows. Feasible because each
//     row through e contributes at most w[e]/deg(e), and there are deg(e)
//     of them. This is where the bound gets genuinely fractional strength
//     — on an odd cycle of unit-cost 2-rows every element has degree 2,
//     the duals are all 1/2, and their sum rounds up past anything
//     integral duals (and hence the disjoint-packing bound, whose duals
//     are 0/1) can certify.
//  2. Greedy saturation: sweep the unhit rows (smallest first — rows are
//     size-sorted) raising each y_row by the minimum remaining capacity of
//     its elements, recovering the packing-like strength phase 1 leaves on
//     the table when degrees are unbalanced.
//
// The optimum is an integer (integer costs), so rounding up is admissible;
// the epsilon, scaled with the total, absorbs accumulated float error in
// the conservative direction before rounding up.
func (h *hittingSet) lpBound() int64 {
	w := h.fam.W
	if w == nil {
		for i := range h.lpCap {
			h.lpCap[i] = 1
		}
	} else {
		for i, wi := range w {
			h.lpCap[i] = float64(wi)
		}
	}
	clear(h.lpDeg)
	for si, row := range h.fam.Rows {
		if h.hitCount[si] > 0 {
			continue
		}
		for _, e := range row {
			h.lpDeg[e]++
		}
	}
	total := 0.0
	for si, row := range h.fam.Rows {
		if h.hitCount[si] > 0 {
			continue
		}
		y := math.MaxFloat64
		for _, e := range row {
			we := 1.0
			if w != nil {
				we = float64(w[e])
			}
			if v := we / float64(h.lpDeg[e]); v < y {
				y = v
			}
			if c := h.lpCap[e]; c < y {
				y = c
			}
		}
		if y <= 0 {
			continue
		}
		for _, e := range row {
			h.lpCap[e] -= y
		}
		total += y
	}
	for si, row := range h.fam.Rows {
		if h.hitCount[si] > 0 {
			continue
		}
		y := math.MaxFloat64
		for _, e := range row {
			if c := h.lpCap[e]; c < y {
				y = c
			}
		}
		if y <= 0 {
			continue
		}
		for _, e := range row {
			h.lpCap[e] -= y
		}
		total += y
	}
	return int64(math.Ceil(total - 1e-9*(1+total)))
}
