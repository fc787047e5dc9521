package witset

import (
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cow"
	"repro/internal/ctxpoll"
)

// This file is the instance-level preprocessing pipeline shared by every
// NP-side solver: Kernelize shrinks a hitting-set family with classic
// kernelization rules before any exponential search starts, and Decompose
// splits it into connected components whose minima add. DESIGN.md §7 states
// the soundness argument per rule; the short version:
//
//   - Unit-row forcing: a row {e} can only be hit by e, so e is in every
//     hitting set; force e, delete all rows containing e (they are hit),
//     and recurse on the rest. ρ(F) = |forced| + ρ(remainder).
//   - Dominated-tuple elimination: if every row containing a also contains
//     b (a ≠ b), replacing a by b in any hitting set keeps it hitting and
//     never grows it, so some minimum hitting set avoids a and a can be
//     dropped from every row. This preserves the optimum but not the set
//     of optima, so the all-optima enumerator must not use it.
//   - Superset-row elimination (already in NewFamily): hitting a subset
//     always hits its supersets.
//
// Components of the row-intersection graph share no elements, so hitting
// sets combine disjointly: ρ(F) = Σ_C ρ(C), and the minimum hitting sets
// of F are exactly the unions of per-component minimum hitting sets.

// Kernel is the outcome of kernelizing a family: elements forced into every
// minimum hitting set, plus the reduced family over the same global
// universe. ρ(original) = len(Forced) + ρ(Fam), and prepending the forced
// ids to any minimum hitting set of Fam gives a minimum hitting set of the
// original family.
type Kernel struct {
	// Forced lists the element ids every minimum hitting set must contain
	// (unit-row forcing, iterated to fixpoint), in increasing order.
	Forced []int32
	// Dominated counts elements removed by dominated-tuple elimination.
	Dominated int
	// Fam is the kernelized family, over the same universe as the input
	// (ids stay global; dropped elements simply occur in no row).
	Fam *Family

	compsOnce sync.Once
	comps     []*Component
}

// Components returns the connected components of the kernelized family,
// computed once and shared across concurrent solvers.
func (k *Kernel) Components() []*Component {
	k.compsOnce.Do(func() { k.comps = Decompose(k.Fam) })
	return k.comps
}

// Kernelize applies unit-row forcing and dominated-tuple elimination to
// fixpoint, re-normalizing (dedup + superset elimination, via NewFamily)
// after every round that fired a rule: forcing can orphan rows, and
// dropping a dominated element can shrink a row under a sibling, exposing
// new units and new subset relations. The input family is never modified;
// when no rule fires at all it is returned unchanged inside the kernel, so
// the quiescent case costs detection passes and no second family.
func Kernelize(f *Family) *Kernel {
	k, _ := KernelizeCtx(context.Background(), f)
	return k
}

// KernelizeCtx is Kernelize with cancellation: the fixpoint loop, the
// dominated-tuple scan, and the per-round family re-normalization all poll
// ctx (throttled via ctxpoll), so a long kernelization over a large family
// stops within microseconds of cancellation instead of running the round
// to completion. On cancellation it returns ctx's error and no kernel.
func KernelizeCtx(ctx context.Context, f *Family) (*Kernel, error) {
	poll := ctxpoll.New(ctx)
	var forced []int32
	dominated := 0
	cur := f
	for {
		rows := cur.Rows
		newForced := forceUnits(f.N, &rows)
		drops := dropDominated(f.N, f.W, &rows, poll)
		if err := poll.Err(); err != nil {
			return nil, err
		}
		if len(newForced) == 0 && drops == 0 {
			break
		}
		forced = append(forced, newForced...)
		dominated += drops
		var err error
		cur, err = newFamilyPolled(rows, f.N, false, poll)
		if err != nil {
			return nil, err
		}
		// Re-normalization preserves the universe, so the weights carry over.
		cur.W = f.W
	}
	sortIDs(forced)
	return &Kernel{Forced: forced, Dominated: dominated, Fam: cur}, nil
}

// forceUnits forces the element of every singleton row and removes the rows
// those elements hit. One pass suffices: removing whole rows never creates
// a new singleton (new units only appear after domination or superset
// elimination shrink rows, which the Kernelize fixpoint loop covers).
// *rows is replaced, never mutated in place.
func forceUnits(n int, rows *[][]int32) []int32 {
	var forced []int32
	var forcedBits Bits
	for _, row := range *rows {
		if len(row) != 1 {
			continue
		}
		if forcedBits == nil {
			forcedBits = NewBits(n)
		}
		if !forcedBits.Has(row[0]) {
			forcedBits.Set(row[0])
			forced = append(forced, row[0])
		}
	}
	if forced == nil {
		return nil
	}
	kept := make([][]int32, 0, len(*rows))
	for _, row := range *rows {
		hit := false
		for _, e := range row {
			if forcedBits.Has(e) {
				hit = true
				break
			}
		}
		if !hit {
			kept = append(kept, row)
		}
	}
	*rows = kept
	return forced
}

// dropDominated removes every element a whose rows are all covered by a
// co-occurring element b (occurrence-set inclusion, with an id tie-break on
// equality so exactly one of two interchangeable elements survives) and
// returns the number of elements dropped. *rows is replaced, never mutated
// in place. A cancelled poll aborts the scan early; the caller must check
// poll.Err() and discard the (partial) result.
//
// With weights (w non-nil, indexed like the universe) the rule additionally
// requires the dominator to be no more expensive: replacing a by b in any
// hitting set keeps it hitting (b covers all of a's rows) and never raises
// its cost only when w[b] <= w[a], so some minimum-cost hitting set avoids
// a. On fully interchangeable elements (equal occurrence sets AND equal
// weights) the id tie-break keeps exactly one of the pair, as before.
func dropDominated(n int, w []int64, rows *[][]int32, poll *ctxpoll.Poller) int {
	cur := *rows
	if len(cur) == 0 {
		return 0
	}
	// occ[e] is the set of row indexes containing e, sized to the current
	// row slice; present lists the elements that occur at all.
	occ := make([]Bits, n)
	present := make([]int32, 0, 64)
	for ri, row := range cur {
		if poll.Cancelled() {
			return 0
		}
		for _, e := range row {
			if occ[e] == nil {
				occ[e] = NewBits(len(cur))
				present = append(present, e)
			}
			occ[e].Set(int32(ri))
		}
	}
	sortIDs(present)

	var dropped Bits
	nDropped := 0
	for _, a := range present {
		if poll.Cancelled() {
			return nDropped
		}
		if dropped != nil && dropped.Has(a) {
			continue
		}
		ab := occ[a]
		// A dominator must co-occur with a everywhere, so in a's first row
		// in particular: only that row's elements are candidates.
		for _, b := range cur[firstSet(ab)] {
			if b == a || (dropped != nil && dropped.Has(b)) {
				continue
			}
			bb := occ[b]
			if !SubsetOf(ab, bb) {
				continue
			}
			if w != nil && w[b] > w[a] {
				continue // b covers a's rows but costs more: no domination
			}
			// Occ(a) ⊆ Occ(b) and w[b] <= w[a]: strict inclusion or a strictly
			// cheaper b always drops a; on full equality (same rows, same
			// cost) drop the larger id so exactly one of the pair survives.
			if Equal(ab, bb) && (w == nil || w[a] == w[b]) && a < b {
				continue
			}
			if dropped == nil {
				dropped = NewBits(n)
			}
			dropped.Set(a)
			nDropped++
			break
		}
	}
	if nDropped == 0 {
		return 0
	}
	out := make([][]int32, len(cur))
	for ri, row := range cur {
		kept := make([]int32, 0, len(row))
		for _, e := range row {
			if !dropped.Has(e) {
				kept = append(kept, e)
			}
		}
		out[ri] = kept
	}
	*rows = out
	return nDropped
}

// firstSet returns the index of the lowest set bit; b must be non-empty.
func firstSet(b Bits) int32 {
	for wi, w := range b {
		if w != 0 {
			return int32(wi*64 + bits.TrailingZeros64(w))
		}
	}
	panic("witset: firstSet on empty bitset")
}

// Component is one connected component of a family: a family over its own
// dense local universe, plus the remap from local ids back to the global
// ids of the decomposed family.
type Component struct {
	// Fam is the component's family; element e of Fam is Global[e].
	Fam *Family
	// Global maps local element ids to global ids, strictly increasing.
	Global []int32
	// rows are the component's raw rows over global ids, in the order its
	// family was built from. ApplyDelta finds the rows a delete kills here,
	// and a delta-maintained instance lists its rows from its components.
	rows [][]int32

	// base is, on a weighted view (Instance.WithWeights), the unweighted
	// component of the base instance that this one re-costs; nil otherwise.
	base *Component

	// key memoizes Instance.ComponentKey. A component is shared by pointer
	// only between instances that agree on the tuple of every id it uses
	// (a delta's base and result), so one rendering serves all of them.
	key atomic.Pointer[string]
}

// withCosts returns the components of a weighted view over the
// unweighted split comps: each shares its unweighted twin's rows, family
// and remap, with the costs w (indexed by global id) attached. Costs play
// no part in the split or in row normalization, so this is exactly what
// decomposing the view's own family would give.
func withCosts(comps []*Component, w []int64) []*Component {
	out := make([]*Component, len(comps))
	for i, c := range comps {
		fam := *c.Fam
		fam.W = localCosts(w, c.Global)
		out[i] = &Component{Fam: &fam, Global: c.Global, rows: c.rows, base: c}
	}
	return out
}

// localCosts returns the costs w of the global ids global, indexed like
// global; nil when w is (unit costs).
func localCosts(w []int64, global []int32) []int64 {
	if w == nil {
		return nil
	}
	lw := make([]int64, len(global))
	for li, e := range global {
		lw[li] = w[e]
	}
	return lw
}

// ToGlobal maps a set of local ids (as returned by a solver over Fam) back
// to global ids.
func (c *Component) ToGlobal(local []int32) []int32 {
	out := make([]int32, len(local))
	for i, e := range local {
		out[i] = c.Global[e]
	}
	return out
}

// Decompose splits a family into the connected components of its
// row-intersection graph: elements are connected when they co-occur in a
// row, and each row lands in the component of its elements. Elements
// occurring in no row belong to no component (they can never be part of a
// minimum hitting set). Components are ordered by their smallest global
// element id, and each component's family is rebuilt over a dense local
// universe so downstream bitsets and CNF variable ranges stay small.
func Decompose(f *Family) []*Component {
	return decompose(f.Rows, f.N, f.W)
}

// decompose is Decompose over a family given by its rows (sorted sets)
// over a universe of n elements with costs w (nil: unit costs). Each
// component's family orders its rows by size, ties in input order.
// ApplyDelta calls it on the rows of the components a delta touched only.
func decompose(rows [][]int32, n int, w []int64) []*Component {
	if len(rows) == 0 {
		return nil
	}
	// The union-find array spans the universe, though a delta's
	// re-decomposition meets few of its ids: it is recycled, and only the
	// entries of ids occurring in rows are initialized (find never visits
	// any other).
	pp, _ := parentPool.Get().(*[]int32)
	if pp == nil || cap(*pp) < n {
		s := make([]int32, n)
		pp = &s
	}
	defer parentPool.Put(pp)
	parent := (*pp)[:n]
	for _, row := range rows {
		for _, e := range row {
			parent[e] = e
		}
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, row := range rows {
		r0 := find(row[0])
		for _, e := range row[1:] {
			re := find(e)
			if re != r0 {
				// Point the larger root at the smaller so every root is the
				// minimum of its component.
				if re < r0 {
					parent[r0] = re
					r0 = re
				} else {
					parent[re] = r0
				}
			}
		}
	}

	type group struct {
		rows  [][]int32
		elems map[int32]bool
	}
	groups := map[int32]*group{}
	var roots []int32
	for _, row := range rows {
		r := find(row[0])
		g, ok := groups[r]
		if !ok {
			g = &group{elems: map[int32]bool{}}
			groups[r] = g
			roots = append(roots, r)
		}
		g.rows = append(g.rows, row)
		for _, e := range row {
			g.elems[e] = true
		}
	}
	sortIDs(roots) // roots are component minima, so this orders by smallest element

	out := make([]*Component, 0, len(roots))
	for _, r := range roots {
		g := groups[r]
		global := make([]int32, 0, len(g.elems))
		for e := range g.elems {
			global = append(global, e)
		}
		sortIDs(global)
		local := make(map[int32]int32, len(global))
		for li, e := range global {
			local[e] = int32(li)
		}
		lrows := make([][]int32, len(g.rows))
		for i, row := range g.rows {
			lr := make([]int32, len(row))
			for j, e := range row {
				lr[j] = local[e]
			}
			// Family rows are sorted and the global->local remap is
			// monotone, so lr is already strictly increasing; slices.Sort
			// is a near-free guard against that invariant ever changing.
			slices.Sort(lr)
			lrows[i] = lr
		}
		cf := NewFamily(lrows, len(global), false)
		cf.W = localCosts(w, global)
		out = append(out, &Component{
			Fam:    cf,
			Global: global,
			rows:   g.rows,
		})
	}
	return out
}

// parentPool recycles decompose's union-find arrays.
var parentPool sync.Pool

// componentSplit is an instance's component split (Instance.Components).
// Components are ordered by their smallest global id, which also names a
// component across a delta: a component the delta leaves untouched keeps
// its rows, its ids and so its smallest id.
type componentSplit struct {
	comps []*Component

	rootOnce sync.Once
	root     cow.Map[int32, *Component]
}

// roots maps every id that occurs in a row to its component. A split
// decomposed from scratch builds the map on first use, by the first delta
// applied to its instance; a split ApplyDelta carries gets a patched
// copy-on-write clone of its base's map at construction.
//
// The map's hash keeps id order: ids are dense, and the ids of one
// component mostly lie close together (a build interns a component's
// tuples as it meets them, a delta its new tuples last), so shifting
// [0, n) onto the high bits that pick the page and part keeps a
// component in few parts, and patching it after a delta copies few.
// Later ids past n wrap around onto the low ones, which only costs
// balance.
func (sp *componentSplit) roots() *cow.Map[int32, *Component] {
	sp.rootOnce.Do(func() {
		n, total := int32(0), 0
		for _, c := range sp.comps {
			n = max(n, c.Global[len(c.Global)-1]+1)
			total += len(c.Global)
		}
		s := 64 - bits.Len32(uint32(n))
		sp.root = cow.New[int32, *Component](total, func(id int32) uint64 { return uint64(uint32(id)) << s }, nil)
		for _, c := range sp.comps {
			for _, e := range c.Global {
				sp.root.Set(e, c)
			}
		}
	})
	return &sp.root
}
