package witset

import (
	"context"
	"errors"
	"slices"

	"repro/internal/ctxpoll"
	"repro/internal/db"
	"repro/internal/eval"
)

// Delta IR maintenance. A tuple insert or delete touches only the
// witnesses that use that tuple. ApplyDelta therefore patches an existing
// instance instead of re-enumerating the whole join: an insert adds the
// rows of the new witnesses, which eval.ForEachDeltaWitness enumerates
// (semi-join against the one-tuple delta), interning tuples first seen
// now; deleting an endogenous tuple drops the rows that contain its id,
// and deleting an exogenous one (which occurs in no row) enumerates the
// vanishing witnesses and drops one row per witness. The old instance,
// which may be shared by in-flight solvers, is never modified.
//
// The component split carries over too, and it is what keeps a delta's
// cost to the batch. Minimum hitting sets add over components, and a
// delta can only change the components its removed and added rows touch:
// every other component of the base is shared by pointer, memoized
// fingerprint included, and only the touched components' surviving rows
// plus the new rows are decomposed afresh. Each component holds its own
// rows, and the split maps every id to its component, so a delete finds
// the rows it kills in one component; the universe, the id map and that
// map are shared with the base as far as the batch leaves them alone.
// The engine then finds the untouched components in its component-result
// cache and re-solves only the dirtied ones.

// Mutation is one tuple-level database change, already resolved against
// the post-mutation database's interner.
type Mutation struct {
	// Insert distinguishes an insert from a delete.
	Insert bool
	// Tuple is the changed tuple.
	Tuple db.Tuple
}

// DeltaStats reports what a delta application touched.
type DeltaStats struct {
	// RowsAdded counts witness rows appended by inserts.
	RowsAdded int
	// RowsRemoved counts witness rows removed by deletes.
	RowsRemoved int
	// NewTuples counts tuples first interned by this delta.
	NewTuples int
}

// ErrNeedRebuild reports that an instance cannot be delta-maintained and
// must be rebuilt from scratch with Build. The two causes: the base
// instance is unbreakable (its row set is partial — enumeration stopped at
// the first fully-exogenous witness), or the maintained rows drifted from
// the base in a way the delta bookkeeping cannot reconcile.
var ErrNeedRebuild = errors.New("witset: instance requires a full rebuild")

// ApplyDelta maintains base under a batch of tuple mutations and returns a
// new instance equivalent to Build over the post-mutation database. work
// must be a mutable database in the pre-batch state whose constant
// interner extends base's (clone the old database and sync any new
// constants); ApplyDelta applies the mutations to work as it goes and
// leaves it in the post-batch state. base is never modified and stays
// valid for concurrent readers.
//
// The new instance preserves base's tuple interning (ids of surviving
// tuples are stable) and appends ids for tuples first seen by inserted
// witnesses. Deleted tuples keep their id in the universe but occur in no
// row — exactly like a tuple whose witnesses all vanished under Build's
// keep filter — so families and bitsets stay well-formed.
//
// The new instance carries base's component split (computing it first if
// base has none): its Components equal a fresh Decompose of its raw
// family, and cost what the batch touched (see carrySplit). Its rows are
// its components' rows, listed component by component; Rows assembles
// them on first use.
//
// Built instances with a keep filter must not be delta-maintained: the
// filter is not recorded, so ApplyDelta would resurrect filtered
// witnesses.
func ApplyDelta(ctx context.Context, base *Instance, work *db.Database, muts []Mutation) (*Instance, *DeltaStats, error) {
	if base.unbreakable {
		// rows is partial (enumeration stopped early): nothing to patch.
		return nil, nil, ErrNeedRebuild
	}
	q := base.query
	poll := ctxpoll.New(ctx)
	st := &DeltaStats{}
	base.Components()
	sp := base.split.Load()
	root := sp.roots()

	// The universe and its id map are shared with the base (ids are
	// stable across versions) until the batch interns a tuple the base has
	// never seen. Then idOf becomes a copy-on-write clone, which costs
	// O(∛universe) and copies only the parts the new tuples land in (the
	// first delta of a lineage also splits the build's map, once), and
	// tuples a private copy of the base's slice, which every consumer of
	// the base reads.
	tuples := base.tuples
	idOf := base.idOf
	intern := func(t db.Tuple) int32 {
		id, ok := idOf.Get(t)
		if !ok {
			if len(tuples) == len(base.tuples) {
				idOf = base.idOf.Clone()
				tuples = slices.Clip(base.tuples)
			}
			id = int32(len(tuples))
			idOf.Set(t, id)
			tuples = append(tuples, t)
		}
		return id
	}

	// Rows die in place: dead[c][j] marks the j-th row of base component
	// c, added holds the batch's new rows and addedDead their deaths.
	// Every row of the base lies in the component of its ids, so finding
	// the rows a delete kills costs one component.
	dead := map[*Component][]bool{}
	var added [][]int32
	var addedDead []bool
	killBase := func(c *Component, j int) {
		d := dead[c]
		if d == nil {
			d = make([]bool, len(c.rows))
			dead[c] = d
		}
		d[j] = true
		st.RowsRemoved++
	}
	// killWhere kills the live rows that satisfy match: every such row of
	// the component holding id, then every such new row. With one set, it
	// stops after the first kill.
	killWhere := func(id int32, match func([]int32) bool, one bool) bool {
		found := false
		if c, ok := root.Get(id); ok {
			for j, row := range c.rows {
				if (dead[c] == nil || !dead[c][j]) && match(row) {
					killBase(c, j)
					found = true
					if one {
						return true
					}
				}
			}
		}
		for j, row := range added {
			if !addedDead[j] && match(row) {
				addedDead[j] = true
				st.RowsRemoved++
				found = true
				if one {
					return true
				}
			}
		}
		return found
	}

	unbreakable := false
	for _, m := range muts {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if m.Insert {
			if work.Has(m.Tuple) {
				continue // no-op insert: no new witnesses
			}
			work.AddTuple(m.Tuple)
			eval.ForEachDeltaWitness(q, work, m.Tuple, func(w eval.Witness) bool {
				if poll.Cancelled() {
					return false
				}
				ts := eval.WitnessTuples(q, w, true)
				if len(ts) == 0 {
					unbreakable = true
					return false
				}
				row := make([]int32, len(ts))
				for j, t := range ts {
					row[j] = intern(t)
				}
				sortIDs(row)
				added = append(added, row)
				addedDead = append(addedDead, false)
				st.RowsAdded++
				return true
			})
			if err := poll.Err(); err != nil {
				return nil, nil, err
			}
			if unbreakable {
				break
			}
			continue
		}
		if !work.Has(m.Tuple) {
			continue // no-op delete
		}
		if !q.IsExogenous(m.Tuple.Rel) {
			// Every witness that uses an endogenous tuple has the tuple's
			// id in its row, and every row holding the id is such a
			// witness; a tuple without an id occurs in no witness.
			if id, ok := idOf.Get(m.Tuple); ok {
				killWhere(id, func(row []int32) bool { return slices.Contains(row, id) }, false)
			}
			work.Remove(m.Tuple)
			continue
		}
		// An exogenous tuple occurs in no row. The vanishing witnesses are
		// those of the pre-state that use it, so enumerate before removing
		// it and drop one row of equal content per witness (multiset
		// semantics: identical witnesses keep a row each).
		failed := false
		eval.ForEachDeltaWitness(q, work, m.Tuple, func(w eval.Witness) bool {
			if poll.Cancelled() {
				return false
			}
			ts := eval.WitnessTuples(q, w, true)
			if len(ts) == 0 {
				// A fully-exogenous witness existed, yet base was not marked
				// unbreakable: the base predates some exogenous change we
				// cannot reconcile. Rebuild from scratch.
				failed = true
				return false
			}
			row := make([]int32, len(ts))
			for j, t := range ts {
				id, ok := idOf.Get(t)
				if !ok {
					failed = true
					return false
				}
				row[j] = id
			}
			sortIDs(row)
			if !killWhere(row[0], func(r []int32) bool { return slices.Equal(r, row) }, true) {
				failed = true
				return false
			}
			return true
		})
		if err := poll.Err(); err != nil {
			return nil, nil, err
		}
		if failed {
			return nil, nil, ErrNeedRebuild
		}
		work.Remove(m.Tuple)
	}

	st.NewTuples = len(tuples) - len(base.tuples)
	out := &Instance{query: q, tuples: tuples, idOf: idOf, unbreakable: unbreakable}
	if base.weights != nil {
		// Surviving tuples keep their cost (ids are stable); tuples first
		// interned by this delta get the default cost 1.
		w := slices.Clip(base.weights)
		for len(w) < len(tuples) {
			w = append(w, 1)
		}
		out.weights = w
	}
	if unbreakable {
		// Enumeration stopped at an all-exogenous witness: like Build's,
		// the instance holds no rows to solve.
		return out, st, nil
	}
	out.nrows = base.nrows + st.RowsAdded - st.RowsRemoved
	var fresh [][]int32
	for j, row := range added {
		if !addedDead[j] {
			fresh = append(fresh, row)
		}
	}
	out.split.Store(carrySplit(sp, dead, fresh, out))
	return out, st, nil
}

// carrySplit derives out's component split from its base's split sp,
// given the base rows that died (dead, per component) and the live new
// rows. The result equals Decompose(out.Family(true)): a component none of
// whose rows died and none of whose ids occurs in a new row keeps its rows
// in out, so it is shared by pointer; the rest ("dirty") are decomposed
// afresh from their surviving rows and the new ones. That set of rows is
// closed under sharing an id: a row sharing an id with a dirty component
// or a new row belongs to that dirty component.
//
// The work is that of the dirty components and the new rows, plus one
// pointer per component for the merged list; the id-to-component map is a
// copy-on-write clone patched for the dirty ids.
func carrySplit(sp *componentSplit, dead map[*Component][]bool, fresh [][]int32, out *Instance) *componentSplit {
	if len(dead) == 0 && len(fresh) == 0 {
		return sp
	}
	root := sp.roots()
	dirty := map[*Component]bool{}
	for c := range dead {
		dirty[c] = true
	}
	for _, row := range fresh {
		for _, e := range row {
			if c, ok := root.Get(e); ok {
				dirty[c] = true
			}
		}
	}

	// The rows to re-decompose: the dirty components' survivors in
	// component order, then the new rows. out lists its rows component by
	// component in this same order (see Rows), so decompose's tie order
	// matches what Decompose(out.Family(true)) would see.
	var sub [][]int32
	for _, c := range sp.comps {
		if !dirty[c] {
			continue
		}
		d := dead[c]
		for j, row := range c.rows {
			if d == nil || !d[j] {
				sub = append(sub, row)
			}
		}
	}
	sub = append(sub, fresh...)
	recomputed := decompose(sub, len(out.tuples), out.weights)

	// Merge the clean components with the recomputed ones, both ordered
	// by smallest id.
	comps := make([]*Component, 0, len(sp.comps)+len(recomputed)-len(dirty))
	j := 0
	for _, c := range sp.comps {
		if dirty[c] {
			continue
		}
		for j < len(recomputed) && recomputed[j].Global[0] < c.Global[0] {
			comps = append(comps, recomputed[j])
			j++
		}
		comps = append(comps, c)
	}
	comps = append(comps, recomputed[j:]...)

	nroot := root.Clone()
	for c := range dirty {
		for _, e := range c.Global {
			nroot.Delete(e)
		}
	}
	for _, c := range recomputed {
		for _, e := range c.Global {
			nroot.Set(e, c)
		}
	}
	nsp := &componentSplit{comps: comps}
	nsp.rootOnce.Do(func() { nsp.root = nroot })
	return nsp
}
