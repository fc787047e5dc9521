package witset

import (
	"context"
	"errors"
	"maps"
	"slices"

	"repro/internal/ctxpoll"
	"repro/internal/db"
	"repro/internal/eval"
)

// Delta IR maintenance. A tuple insert or delete touches only the
// witnesses that use that tuple. ApplyDelta therefore patches an existing
// instance instead of re-enumerating the whole join: an insert appends the
// rows of the new witnesses, which eval.ForEachDeltaWitness enumerates
// (semi-join against the one-tuple delta), interning tuples first seen
// now; deleting an endogenous tuple drops the rows that contain its id,
// and deleting an exogenous one (which occurs in no row) enumerates the
// vanishing witnesses and drops one row per witness. The old instance,
// which may be shared by in-flight solvers, is never modified.
//
// The component split carries over too. Minimum hitting sets add over
// components, and a delta can only change the components its removed and
// added rows touch: every other component of the base is shared by
// pointer, memoized fingerprint included, and only the touched
// components' surviving rows plus the new rows are decomposed afresh. The
// engine then finds the untouched components in its component-result
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
// When base's component split has been computed, the new instance
// carries it (see carrySplit): its Components equal a fresh Decompose of
// its raw family, at the cost of the components the batch touched.
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

	// Copy-on-write universe and rows: the base's slices are shared with
	// every consumer of the base instance, so grow private copies.
	tuples := append(make([]db.Tuple, 0, len(base.tuples)+len(muts)), base.tuples...)
	idOf := maps.Clone(base.idOf)
	rows := append(make([][]int32, 0, len(base.rows)+len(muts)), base.rows...)
	alive := make([]bool, len(rows))
	for i := range alive {
		alive[i] = true
	}
	liveCount := len(rows)
	kill := func(i int) {
		alive[i] = false
		liveCount--
		st.RowsRemoved++
	}

	intern := func(t db.Tuple) int32 {
		id, ok := idOf[t]
		if !ok {
			id = int32(len(tuples))
			idOf[t] = id
			tuples = append(tuples, t)
		}
		return id
	}

	// byKey indexes live row contents for exogenous deletes (multiset
	// semantics: one row per witness, identical contents kept separately).
	// Built on the first such delete, maintained across later inserts.
	var byKey map[string][]int
	rowKey := func(row []int32) string {
		b := make([]byte, 0, len(row)*4)
		for _, e := range row {
			b = append(b, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
		}
		return string(b)
	}
	buildIndex := func() {
		byKey = make(map[string][]int, len(rows))
		for i, row := range rows {
			if alive[i] {
				k := rowKey(row)
				byKey[k] = append(byKey[k], i)
			}
		}
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
				rows = append(rows, row)
				alive = append(alive, true)
				liveCount++
				st.RowsAdded++
				if byKey != nil {
					k := rowKey(row)
					byKey[k] = append(byKey[k], len(rows)-1)
				}
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
			if id, ok := idOf[m.Tuple]; ok {
				for i, row := range rows {
					if alive[i] && slices.Contains(row, id) {
						kill(i)
					}
				}
			}
			work.Remove(m.Tuple)
			continue
		}
		// An exogenous tuple occurs in no row. The vanishing witnesses are
		// those of the pre-state that use it, so enumerate before removing
		// it and drop one row of equal content per witness.
		if byKey == nil {
			buildIndex()
		}
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
				id, ok := idOf[t]
				if !ok {
					failed = true
					return false
				}
				row[j] = id
			}
			sortIDs(row)
			k := rowKey(row)
			idxs := byKey[k]
			found := false
			for len(idxs) > 0 {
				i := idxs[len(idxs)-1]
				idxs = idxs[:len(idxs)-1]
				if alive[i] {
					kill(i)
					found = true
					break
				}
			}
			byKey[k] = idxs
			if !found {
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
		w := append(make([]int64, 0, len(tuples)), base.weights...)
		for len(w) < len(tuples) {
			w = append(w, 1)
		}
		out.weights = w
	}
	if unbreakable {
		return out, st, nil
	}
	out.rows = make([][]int32, 0, liveCount)
	for i, row := range rows {
		if alive[i] {
			out.rows = append(out.rows, row)
		}
	}
	if sp := base.split.Load(); sp != nil {
		out.split.Store(carrySplit(sp, rows, alive, len(base.rows), out))
	}
	return out, st, nil
}

// carrySplit derives out's component split from its base's split sp. rows
// are the base's rows (the first nBase) followed by the delta's new rows,
// and alive marks the survivors. The result equals
// Decompose(out.Family(true)): a component none of whose rows died and
// none of whose tuples occurs in a new row has the same rows in the same
// order in out, so it is shared; the rest are re-decomposed from their
// surviving rows and the new ones. The set of re-decomposed rows is closed
// under sharing a tuple: a row sharing a tuple with a dirty component or a
// new row belongs to that dirty component.
func carrySplit(sp *componentSplit, rows [][]int32, alive []bool, nBase int, out *Instance) *componentSplit {
	root := sp.roots()
	var dirty Bits // indexed by a component's smallest id
	mark := func(e int32) {
		if int(e) < len(root) && root[e] >= 0 {
			if dirty == nil {
				dirty = NewBits(len(root))
			}
			dirty.Set(root[e])
		}
	}
	touched := false
	for i, row := range rows {
		switch {
		case i < nBase && !alive[i]:
			mark(row[0]) // all of a row's ids lie in one component
			touched = true
		case i >= nBase && alive[i]:
			for _, e := range row {
				mark(e)
			}
			touched = true
		}
	}
	if !touched {
		return sp
	}

	// The rows to re-decompose, in out's row order: decompose orders each
	// component's rows by size, ties in this order, as Family(true) does.
	var sub [][]int32
	for i, row := range rows {
		if alive[i] && (i >= nBase || (dirty != nil && dirty.Has(root[row[0]]))) {
			sub = append(sub, row)
		}
	}
	fresh := decompose(sub, len(out.tuples), out.weights)

	// Merge the clean components with the fresh ones, both ordered by
	// smallest id.
	comps := make([]*Component, 0, len(sp.comps)+len(fresh))
	j := 0
	for _, c := range sp.comps {
		if dirty != nil && dirty.Has(c.Global[0]) {
			continue
		}
		for j < len(fresh) && fresh[j].Global[0] < c.Global[0] {
			comps = append(comps, fresh[j])
			j++
		}
		comps = append(comps, c)
	}
	comps = append(comps, fresh[j:]...)
	return &componentSplit{comps: comps}
}
