package witset

import (
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
// sorted, all framed unambiguously. Equal keys imply isomorphic hitting-
// set instances over identical ground tuples (same ρ, and any optimum of
// one is an optimum of the other).
//
// The key is rendered once per component and memoized on it; components
// ApplyDelta carries across a delta keep theirs.
func (in *Instance) ComponentKey(c *Component) string {
	if k := c.key.Load(); k != nil {
		return *k
	}
	k := in.renderKey(c)
	c.key.Store(&k)
	return k
}

// MemoizedKey returns c's fingerprint if ComponentKey has rendered it
// already, for this instance or for the base of a delta that carried c.
func (c *Component) MemoizedKey() (string, bool) {
	if k := c.key.Load(); k != nil {
		return *k, true
	}
	return "", false
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
