package witset

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"

	"repro/internal/db"
)

// Component fingerprints give witness-hypergraph components an identity
// that is stable across instances: two components with the same
// fingerprint have the same multiset of rows over the same ground tuples,
// hence the same minimum hitting sets. This is what lets the engine reuse
// a component's cached optimum across database versions — after a delta,
// components untouched by the mutation re-fingerprint identically and skip
// kernelization and solver alike, so the new ρ is a cheap re-sum of cached
// per-component minima. The engine keys its cache on the raw (normalized,
// un-kernelized) components of Instance.Components, which is also the
// decomposition DiffComponents compares.

// ComponentKey returns the canonical content fingerprint of component c of
// this instance: each row rendered as its sorted global tuples, rows
// sorted, all framed unambiguously, and on a weighted instance the costs
// of those tuples ahead of that (costKey). Equal keys imply isomorphic
// hitting-set instances over identical ground tuples at identical costs
// (same minimum cost, and any optimum of one is an optimum of the other);
// a weighted key never equals an unweighted one.
//
// The key is rendered once per component and memoized on it; components
// ApplyDelta carries across a delta keep theirs. A weighted view's
// component (WithWeights) renders its rows once, on the unweighted
// component it re-costs, so every view of one base instance shares that
// rendering.
func (in *Instance) ComponentKey(c *Component) string {
	if in.weights == nil {
		return in.plainKey(c)
	}
	if k := c.key.Load(); k != nil {
		return *k
	}
	var plain string
	if c.base != nil {
		plain = in.plainKey(c.base)
	} else {
		plain = in.renderKey(c)
	}
	k := in.costKey(c, plain)
	c.key.Store(&k)
	return k
}

// plainKey returns the fingerprint of c's rows alone, memoized on c: the
// key of an unweighted instance's component. Instances that share a tuple
// universe render it alike.
func (in *Instance) plainKey(c *Component) string {
	if k := c.key.Load(); k != nil {
		return *k
	}
	k := in.renderKey(c)
	c.key.Store(&k)
	return k
}

// MemoizedKey returns c's fingerprint if it is known without rendering a
// row: ComponentKey has rendered it already, for this instance or for the
// base of a delta that carried c, or c belongs to a weighted view and the
// unweighted component it re-costs has its key, which then only needs the
// costs.
func (in *Instance) MemoizedKey(c *Component) (string, bool) {
	if c.key.Load() == nil && (c.base == nil || c.base.key.Load() == nil) {
		return "", false
	}
	return in.ComponentKey(c), true
}

// renderKey renders ComponentKey's fingerprint of c.
func (in *Instance) renderKey(c *Component) string {
	rowStrs := make([]string, len(c.Fam.Rows))
	var b []byte
	for i, row := range c.Fam.Rows {
		ts := make([]db.Tuple, len(row))
		for j, e := range row {
			ts[j] = in.tuples[c.Global[e]]
		}
		db.SortTuples(ts)
		b = b[:0]
		for _, t := range ts {
			b = appendTupleKey(b, t)
		}
		rowStrs[i] = string(b)
	}
	sort.Strings(rowStrs)
	return strings.Join(rowStrs, "\x01")
}

// costKey renders a weighted instance's fingerprint of c from plain, the
// fingerprint of c's rows alone (renderKey): two zero bytes, which no
// tuple encoding starts with (that would be an empty relation name), the
// number of tuples the rows use, then their costs in tuple order, all as
// uvarints, then plain. plain fixes the rows over ground tuples, and so
// which costs are listed and in what order.
func (in *Instance) costKey(c *Component, plain string) string {
	used := make([]int32, 0, len(c.Global)) // local ids of the elements some row uses
	for e, occ := range c.Fam.Occ {
		if len(occ) > 0 {
			used = append(used, int32(e))
		}
	}
	slices.SortFunc(used, func(x, y int32) int {
		return db.CompareTuples(in.tuples[c.Global[x]], in.tuples[c.Global[y]])
	})
	var k strings.Builder
	k.Grow(2 + binary.MaxVarintLen64*(1+len(used)) + len(plain))
	var v [binary.MaxVarintLen64]byte
	k.WriteString("\x00\x00")
	k.Write(binary.AppendUvarint(v[:0], uint64(len(used))))
	for _, e := range used {
		k.Write(binary.AppendUvarint(v[:0], uint64(c.Fam.W[e])))
	}
	k.WriteString(plain)
	return k.String()
}

// appendTupleKey appends an unambiguous encoding of t: length-prefixed
// relation name, arity, then fixed-width argument values.
func appendTupleKey(b []byte, t db.Tuple) []byte {
	b = append(b, byte(len(t.Rel)), byte(len(t.Rel)>>8))
	b = append(b, t.Rel...)
	b = append(b, t.Arity)
	for i := 0; i < int(t.Arity); i++ {
		v := t.Args[i]
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

// DiffComponents reports how many of cur's components have no
// content-identical counterpart among prev's components — the "changed
// components" a watch notification carries, and exactly the components the
// engine's result cache cannot answer after the delta. The comparison runs
// on the raw (un-kernelized) decomposition, so it costs no kernelization
// fixpoint. Multiset-aware: duplicated fingerprints consume matches one
// for one. Unbreakable instances have no meaningful decomposition; any
// comparison involving one reports 0.
func DiffComponents(prev, cur *Instance) int {
	if prev == nil || cur == nil || prev.unbreakable || cur.unbreakable {
		return 0
	}
	// A component ApplyDelta carried from prev to cur is the same pointer
	// in both, at the same place in the order by smallest id: pair those
	// off in one merged walk and compare fingerprints only for the rest.
	pc := prev.Components()
	prevKeys := map[string]int{}
	var rest []*Component
	i := 0
	for _, c := range cur.Components() {
		for ; i < len(pc) && pc[i].Global[0] < c.Global[0]; i++ {
			prevKeys[prev.ComponentKey(pc[i])]++
		}
		if i < len(pc) && pc[i] == c {
			i++
			continue
		}
		rest = append(rest, c)
	}
	for ; i < len(pc); i++ {
		prevKeys[prev.ComponentKey(pc[i])]++
	}
	changed := 0
	for _, c := range rest {
		key := cur.ComponentKey(c)
		if prevKeys[key] > 0 {
			prevKeys[key]--
		} else {
			changed++
		}
	}
	return changed
}
