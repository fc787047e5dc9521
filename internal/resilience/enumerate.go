package resilience

import (
	"context"
	"slices"
	"sort"

	"repro/internal/cq"
	"repro/internal/ctxpoll"
	"repro/internal/db"
	"repro/internal/witset"
)

// EnumerateMinimum returns ρ(q, D) together with every minimum contingency
// set, up to maxSets of them (0 means no cap). Sets are returned in a
// deterministic order, each sorted.
//
// Explanations and causality applications often need the full space of
// optimal interventions rather than one witness of optimality — e.g. to
// report all minimal repairs, or to compute how often a tuple appears in
// an optimal contingency set.
func EnumerateMinimum(q *cq.Query, d *db.Database, maxSets int) (int, [][]db.Tuple, error) {
	return EnumerateMinimumCtx(context.Background(), q, d, maxSets)
}

// EnumerateMinimumCtx is EnumerateMinimum with cooperative cancellation:
// the witness enumeration, the ρ computation, and the all-optima recursion
// all poll ctx and abort with ctx.Err() once it is done.
func EnumerateMinimumCtx(ctx context.Context, q *cq.Query, d *db.Database, maxSets int) (int, [][]db.Tuple, error) {
	inst, err := witset.Build(ctx, q, d, nil)
	if err != nil {
		return 0, nil, err
	}
	return EnumerateMinimumOnInstance(ctx, inst, d, maxSets)
}

// EnumerateMinimumOnInstance runs the all-optima enumeration over a
// prebuilt witness-hypergraph IR, which is how the serving layer reuses one
// cached IR across many enumerate requests. d must be the database the
// instance was built from (it resolves constant names for the canonical
// ordering of the returned sets). On a weighted instance the returned size
// is the total cost ρ_w truncated to int; weighted callers should use
// EnumerateMinimumWeightedOnInstance directly.
func EnumerateMinimumOnInstance(ctx context.Context, inst *witset.Instance, d *db.Database, maxSets int) (int, [][]db.Tuple, error) {
	cost, sets, err := EnumerateMinimumWeightedOnInstance(ctx, inst, d, maxSets)
	return int(cost), sets, err
}

// EnumerateMinimumWeightedOnInstance enumerates every minimum-COST
// contingency set of a weighted instance (every minimum-cardinality one
// when the instance is unweighted — the unit APIs are thin wrappers over
// this function), up to maxSets of them, in the same deterministic order.
// Minimum-cost sets are all minimal (costs are >= 1: a redundant element
// could be dropped for a cheaper hitting set), so the branch-on-first-unhit
// recursion still visits every one of them.
//
// The enumeration is component-parallel in structure: the normalized family
// is split into connected components, each component's minimum hitting sets
// are enumerated locally, and the global optima are exactly the unions of
// one minimum set per component — additivity of disjoint costs makes a
// union optimal iff every part is. Kernelization's domination rule is
// deliberately not applied: it preserves one optimum but discards others,
// which is precisely what this API must not do.
func EnumerateMinimumWeightedOnInstance(ctx context.Context, inst *witset.Instance, d *db.Database, maxSets int) (int64, [][]db.Tuple, error) {
	if inst.Unbreakable() {
		return 0, nil, ErrUnbreakable
	}
	comps := inst.Components()
	if len(comps) == 0 {
		return 0, nil, nil // no witnesses, or every row empty — ρ = 0
	}
	poll := ctxpoll.New(ctx)
	cost := int64(0)
	sets := [][]int32{nil} // running cross product, global ids
	for _, c := range comps {
		ccost, csets, err := enumerateFamily(ctx, poll, c.Fam, maxSets)
		if err != nil {
			return 0, nil, err
		}
		cost += ccost
		if ccost == 0 {
			continue // cannot happen (components have rows), but harmless
		}
		next := make([][]int32, 0, len(sets)*len(csets))
	cross:
		for _, base := range sets {
			for _, cs := range csets {
				merged := make([]int32, 0, len(base)+len(cs))
				merged = append(append(merged, base...), c.ToGlobal(cs)...)
				next = append(next, merged)
				if maxSets > 0 && len(next) >= maxSets {
					break cross
				}
			}
		}
		sets = next
	}
	return cost, finishSets(inst, d, sets), nil
}

// enumerateMinimumMonolithic is the pre-pipeline enumeration over the whole
// instance at once: one monolithic solve for the minimum cost, then branch
// on the tuples of the first witness not yet hit, which visits every
// minimum-cost hitting set (any optimal set must intersect that witness).
// It is kept as the differential suite's oracle for pipeline ≡ monolithic
// parity, unit and weighted alike.
func enumerateMinimumMonolithic(ctx context.Context, inst *witset.Instance, d *db.Database, maxSets int) (int64, [][]db.Tuple, error) {
	cost, _, err := solveInstance(ctx, inst, -1, Options{Monolithic: true})
	if err != nil || cost == 0 {
		return 0, nil, err
	}
	poll := ctxpoll.New(ctx)
	sets, err := enumerateRows(poll, inst.Rows(), inst.NumTuples(), inst.Weights(), cost, maxSets, nil)
	if err != nil {
		return 0, nil, err
	}
	return cost, finishSets(inst, d, sets), nil
}

// EnumerateMinimumWeightedFunc is the streaming all-optima enumeration in
// total-cost terms (ρ on an unweighted instance): every minimum-cost
// contingency set is passed to emit as the search discovers it, so a
// serving layer can flush the first set to a client long before the
// enumeration finishes. It returns ρ_w and the number of sets emitted.
//
// ρ_w is computed first (one hitting-set solve per component), so emit
// always receives the final cost; sets then arrive in discovery order — NOT
// the canonical sorted order of EnumerateMinimumWeightedOnInstance — with
// each set's tuples sorted by instance id. maxSets caps emission (0 = no
// cap). An error returned by emit aborts the search and is returned
// unchanged.
//
// Structure: all components but the last are enumerated into the running
// cross-product prefix; the last component's enumeration is then streamed,
// each newly found local set completing len(prefix) global sets. On
// single-component instances (the common case) this degenerates to pure
// streaming of the branch-and-enumerate recursion.
func EnumerateMinimumWeightedFunc(ctx context.Context, inst *witset.Instance, d *db.Database, maxSets int, emit func(cost int64, set []db.Tuple) error) (int64, int, error) {
	if inst.Unbreakable() {
		return 0, 0, ErrUnbreakable
	}
	comps := inst.Components()
	if len(comps) == 0 {
		return 0, 0, nil // no witnesses, or every row empty — ρ = 0
	}
	poll := ctxpoll.New(ctx)

	// Solve every component up front: ρ_w is the sum of the component minima
	// (additivity over disjoint tuple universes), and streaming can only
	// start once it is known.
	cost := int64(0)
	costs := make([]int64, len(comps))
	for i, c := range comps {
		ccost, _, err := solveFamily(ctx, c.Fam, -1, Options{})
		if err != nil {
			return 0, 0, err
		}
		costs[i] = ccost
		cost += ccost
	}

	// Cross-product prefix over all components but the last contributing
	// one. Components with cost == 0 cannot happen (components have rows)
	// but are skipped like in the non-streaming path, keeping both
	// enumerations total on the same inputs.
	contributing := make([]int, 0, len(comps))
	for i := range comps {
		if costs[i] > 0 {
			contributing = append(contributing, i)
		}
	}
	if len(contributing) == 0 {
		return cost, 0, nil
	}
	last := contributing[len(contributing)-1]
	prefix := [][]int32{nil}
	for _, i := range contributing[:len(contributing)-1] {
		csets, err := enumerateRows(poll, comps[i].Fam.Rows, comps[i].Fam.N, comps[i].Fam.W, costs[i], maxSets, nil)
		if err != nil {
			return 0, 0, err
		}
		next := make([][]int32, 0, len(prefix)*len(csets))
	cross:
		for _, base := range prefix {
			for _, cs := range csets {
				merged := make([]int32, 0, len(base)+len(cs))
				merged = append(append(merged, base...), comps[i].ToGlobal(cs)...)
				next = append(next, merged)
				if maxSets > 0 && len(next) >= maxSets {
					break cross
				}
			}
		}
		prefix = next
	}

	c := comps[last]
	count := 0
	var emitErr error
	_, err := enumerateRows(poll, c.Fam.Rows, c.Fam.N, c.Fam.W, costs[last], 0, func(cs []int32) bool {
		for _, base := range prefix {
			// The prefix cross product can dwarf the recursion between
			// emissions (2^components sets from one local set), so
			// cancellation is polled per emission, not just per search
			// node.
			if poll.Cancelled() {
				return false
			}
			merged := make([]int32, 0, len(base)+len(cs))
			merged = append(append(merged, base...), c.ToGlobal(cs)...)
			slices.Sort(merged)
			if emitErr = emit(cost, inst.TupleSet(merged)); emitErr != nil {
				return false
			}
			count++
			if maxSets > 0 && count >= maxSets {
				return false
			}
		}
		return true
	})
	if emitErr != nil {
		return 0, count, emitErr
	}
	if err != nil {
		return 0, count, err
	}
	return cost, count, nil
}

// enumerateFamily returns a family's minimum hitting set cost together with
// its minimum hitting sets (up to maxSets when maxSets > 0), as sorted
// local-id sets in a deterministic order. On an unweighted family the cost
// is the cardinality.
func enumerateFamily(ctx context.Context, poll *ctxpoll.Poller, fam *witset.Family, maxSets int) (int64, [][]int32, error) {
	cost, _, err := solveFamily(ctx, fam, -1, Options{})
	if err != nil {
		return 0, nil, err
	}
	if cost == 0 {
		return 0, nil, nil
	}
	sets, err := enumerateRows(poll, fam.Rows, fam.N, fam.W, cost, maxSets, nil)
	if err != nil {
		return 0, nil, err
	}
	return cost, sets, nil
}

// enumerateRows visits every hitting set of rows with total cost exactly
// cost (element costs from w; 1 each when w is nil, making cost the
// cardinality) by branching on the first unhit row (any optimal set must
// intersect it), deduplicating sets that different branch orders reach.
// cost must be the minimum hitting-set cost: sets cheaper than it cannot
// exist, and branches at or above it with a row still unhit are dead (every
// further element costs >= 1). All recorded sets are minimal — dropping a
// redundant element would give a hitting set cheaper than the minimum.
//
// With a nil visit, sets are collected and returned as sorted id slices in
// a deterministic order, capped at maxSets (0 = no cap). With a non-nil
// visit, each deduplicated set is passed to it as the recursion finds it —
// the streaming mode — and a false return stops the search; the returned
// slice is then nil and capping is the visitor's business.
func enumerateRows(poll *ctxpoll.Poller, rows [][]int32, n int, w []int64, cost int64, maxSets int, visit func([]int32) bool) ([][]int32, error) {
	chosen := witset.NewBits(n)
	var cur []int32
	curW := int64(0)
	seen := map[string]bool{}
	var out [][]int32

	weight := func(e int32) int64 {
		if w == nil {
			return 1
		}
		return w[e]
	}

	record := func() bool {
		set := append([]int32(nil), cur...)
		slices.Sort(set)
		k := idKey(set)
		if seen[k] {
			return true
		}
		seen[k] = true
		if visit != nil {
			return visit(set)
		}
		out = append(out, set)
		return maxSets == 0 || len(out) < maxSets
	}

	var rec func() bool
	rec = func() bool {
		if poll.Cancelled() {
			return false
		}
		// First row not hit by the current choice.
		var unhit []int32
		for _, row := range rows {
			hit := false
			for _, e := range row {
				if chosen.Has(e) {
					hit = true
					break
				}
			}
			if !hit {
				unhit = row
				break
			}
		}
		if unhit == nil {
			if curW == cost {
				return record()
			}
			return true // cheaper than the minimum is impossible; pricier is pruned below
		}
		if curW >= cost {
			return true // budget spent, row unhit: dead branch
		}
		for _, e := range unhit {
			chosen.Set(e)
			cur = append(cur, e)
			curW += weight(e)
			ok := rec()
			curW -= weight(e)
			cur = cur[:len(cur)-1]
			chosen.Unset(e)
			if !ok {
				return false
			}
		}
		return true
	}
	rec()
	if err := poll.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// idKey renders a sorted id set as a map key.
func idKey(ids []int32) string {
	b := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), ';')
	}
	return string(b)
}

// finishSets projects id sets to tuple sets and orders them canonically by
// their rendered tuple strings, matching the order clients have always
// observed.
func finishSets(inst *witset.Instance, d *db.Database, sets [][]int32) [][]db.Tuple {
	if len(sets) == 0 {
		return nil
	}
	out := make([][]db.Tuple, len(sets))
	keys := make([]string, len(sets))
	for i, ids := range sets {
		out[i] = inst.TupleSet(ids)
		s := ""
		for _, t := range out[i] {
			s += d.TupleString(t) + ";"
		}
		keys[i] = s
	}
	sort.Sort(&byKey{keys: keys, sets: out})
	return out
}

type byKey struct {
	keys []string
	sets [][]db.Tuple
}

func (b *byKey) Len() int           { return len(b.keys) }
func (b *byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b *byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.sets[i], b.sets[j] = b.sets[j], b.sets[i]
}
