package witset

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/db"
)

// canonRows renders an instance's witness rows content-canonically: each
// row becomes its sorted global tuple set, and the multiset of rows is
// sorted. Two instances over the same database are equivalent iff these
// match, regardless of tuple-id assignment or row order.
func canonRows(in *Instance) []string {
	out := make([]string, 0, len(in.Rows()))
	for _, row := range in.Rows() {
		ts := in.TupleSet(row)
		db.SortTuples(ts)
		out = append(out, fmt.Sprint(ts))
	}
	sort.Strings(out)
	return out
}

// componentKeys returns the sorted multiset of content fingerprints of an
// instance's raw components — the decomposition the engine's component
// cache keys and DiffComponents compares.
func componentKeys(t *testing.T, in *Instance) []string {
	t.Helper()
	comps := in.Components()
	keys := make([]string, len(comps))
	for i, c := range comps {
		keys[i] = in.ComponentKey(c)
	}
	sort.Strings(keys)
	return keys
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestApplyDeltaDifferential is the randomized differential suite: a
// delta-maintained instance must be content-equivalent to Build from
// scratch over the post-mutation database — the same witness-row multiset
// and the same unbreakable verdict — across long interleaved
// insert/delete sequences on several query shapes. Row equality is the
// semantic anchor: ρ is a function of the row multiset alone. Kernels are
// NOT compared tuple-for-tuple: domination tie-breaks between
// content-equivalent tuples follow id order, and a scratch build assigns
// ids in discovery order while a delta preserves the base's — both
// kernels are valid, they just pick different representatives. (ρ
// equality across the two pipelines is pinned by the engine-level
// differential test; component-fingerprint stability, which is what the
// component cache relies on, by TestComponentKeysStableAcrossDelta.)
func TestApplyDeltaDifferential(t *testing.T) {
	queries := []string{
		"qchain :- R(x,y), R(y,z)",
		"qtri :- R(x,y), R(y,z), R(z,x)",
		"qconf :- A(x), R(x,y), R(z,y), C(z)",
		"qexo :- A(x), R(x,y)^x",
	}
	ctx := context.Background()
	for qi, qs := range queries {
		q := cq.MustParse(qs)
		rng := rand.New(rand.NewSource(int64(100 + qi)))
		d := db.New()
		rels := relationsOf(q)
		// Seed a random initial state over a small shared domain so joins
		// actually meet.
		for _, r := range rels {
			for i := 0; i < 6; i++ {
				addRandomFact(rng, d, r.name, r.arity)
			}
		}
		inst, err := Build(ctx, q, d, nil)
		if err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 40; step++ {
			batch := randomBatch(rng, d, rels)
			work := d.Clone()
			next, _, err := ApplyDelta(ctx, inst, work, batch)
			if errors.Is(err, ErrNeedRebuild) {
				t.Fatalf("%s step %d: unexpected ErrNeedRebuild for batch %v", qs, step, batch)
			}
			if err != nil {
				t.Fatal(err)
			}
			work.Freeze()
			scratch, err := Build(ctx, q, work, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareInstances(t, qs, step, next, scratch)
			d = work
			if next.Unbreakable() {
				// A partial row set cannot be maintained further; restart the
				// chain from the scratch build like the engine does.
				inst = scratch
			} else {
				inst = next
			}
		}
	}
}

func compareInstances(t *testing.T, qs string, step int, got, want *Instance) {
	t.Helper()
	if got.Unbreakable() != want.Unbreakable() {
		t.Fatalf("%s step %d: delta unbreakable=%v, scratch=%v",
			qs, step, got.Unbreakable(), want.Unbreakable())
	}
	if got.Unbreakable() {
		return // row sets are partial by design; nothing more to compare
	}
	if g, w := canonRows(got), canonRows(want); !equalStrings(g, w) {
		t.Fatalf("%s step %d: delta rows diverge\n delta:   %v\n scratch: %v", qs, step, g, w)
	}
}

type relInfo struct {
	name  string
	arity int
}

func relationsOf(q *cq.Query) []relInfo {
	seen := map[string]int{}
	var out []relInfo
	for _, a := range q.Atoms {
		if _, ok := seen[a.Rel]; !ok {
			seen[a.Rel] = len(a.Args)
			out = append(out, relInfo{name: a.Rel, arity: len(a.Args)})
		}
	}
	return out
}

const deltaTestDomain = 8

func addRandomFact(rng *rand.Rand, d *db.Database, rel string, arity int) {
	args := make([]string, arity)
	for i := range args {
		args[i] = fmt.Sprint(rng.Intn(deltaTestDomain))
	}
	d.AddNames(rel, args...)
}

// randomBatch builds 1–3 mutations against d's current contents: a random
// fact over the query's relations, inserted when absent and deleted when
// present. Batches are applied to a scratch tracking copy so a batch
// never contains a same-tuple no-op conflict.
func randomBatch(rng *rand.Rand, d *db.Database, rels []relInfo) []Mutation {
	tracked := d.Clone()
	n := 1 + rng.Intn(3)
	var out []Mutation
	for len(out) < n {
		r := rels[rng.Intn(len(rels))]
		tup := db.Tuple{Rel: r.name, Arity: uint8(r.arity)}
		for i := 0; i < r.arity; i++ {
			tup.Args[i] = tracked.Const(fmt.Sprint(rng.Intn(deltaTestDomain)))
		}
		if tracked.Has(tup) {
			tracked.Remove(tup)
			out = append(out, Mutation{Tuple: tup})
		} else {
			tracked.AddTuple(tup)
			out = append(out, Mutation{Insert: true, Tuple: tup})
		}
	}
	return out
}

// TestApplyDeltaBaseUnchanged pins the copy-on-write contract: the base
// instance is untouched by a delta application, so in-flight solvers can
// keep reading it.
func TestApplyDeltaBaseUnchanged(t *testing.T) {
	q, d := chainInstance(t)
	inst, err := Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := canonRows(inst)
	nTuples := inst.NumTuples()

	work := d.Clone()
	two, three := work.Const("2"), work.Const("3")
	muts := []Mutation{
		{Insert: true, Tuple: db.Tuple{Rel: "R", Arity: 2, Args: [db.MaxArity]db.Value{three, two}}},
		{Tuple: db.Tuple{Rel: "R", Arity: 2, Args: [db.MaxArity]db.Value{two, three}}},
	}
	if _, _, err := ApplyDelta(context.Background(), inst, work, muts); err != nil {
		t.Fatal(err)
	}
	if got := canonRows(inst); !equalStrings(got, before) {
		t.Fatalf("base rows changed: %v -> %v", before, got)
	}
	if inst.NumTuples() != nTuples {
		t.Fatalf("base universe grew: %d -> %d", nTuples, inst.NumTuples())
	}
}

// TestApplyDeltaUnbreakable pins the short-circuit: an insert that creates
// a fully-exogenous witness makes the new instance unbreakable.
func TestApplyDeltaUnbreakable(t *testing.T) {
	q := cq.MustParse("q :- R(x,y)^x")
	d := db.New()
	inst, err := Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Unbreakable() {
		t.Fatal("empty instance reported unbreakable")
	}
	work := d.Clone()
	a, b := work.Const("a"), work.Const("b")
	muts := []Mutation{{Insert: true, Tuple: db.Tuple{Rel: "R", Arity: 2, Args: [db.MaxArity]db.Value{a, b}}}}
	next, _, err := ApplyDelta(context.Background(), inst, work, muts)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Unbreakable() {
		t.Fatal("all-exogenous witness not reported unbreakable after delta")
	}
	// And the unbreakable result cannot be maintained further.
	if _, _, err := ApplyDelta(context.Background(), next, work.Clone(), muts); !errors.Is(err, ErrNeedRebuild) {
		t.Fatalf("ApplyDelta on unbreakable base: err = %v, want ErrNeedRebuild", err)
	}
}

// TestComponentKeysStableAcrossDelta pins the invariant the engine's
// component cache relies on: a delta localized to one part of the
// hypergraph leaves every untouched component's content fingerprint
// intact, and DiffComponents counts exactly the dirtied components.
func TestComponentKeysStableAcrossDelta(t *testing.T) {
	q := cq.MustParse("qmchain :- R(x,y), R(y,z)")
	rng := rand.New(rand.NewSource(11))
	d := datagen.ManyComponentChainDB(rng, 20, 3, 10)
	base, err := Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseKeys := componentKeys(t, base)

	// Insert a fresh 3-cycle: three new witnesses forming exactly one new
	// component, leaving every existing component's rows untouched.
	work := d.Clone()
	a, b, c := work.Const("na"), work.Const("nb"), work.Const("nc")
	muts := []Mutation{
		{Insert: true, Tuple: db.Tuple{Rel: "R", Arity: 2, Args: [db.MaxArity]db.Value{a, b}}},
		{Insert: true, Tuple: db.Tuple{Rel: "R", Arity: 2, Args: [db.MaxArity]db.Value{b, c}}},
		{Insert: true, Tuple: db.Tuple{Rel: "R", Arity: 2, Args: [db.MaxArity]db.Value{c, a}}},
	}
	next, st, err := ApplyDelta(context.Background(), base, work, muts)
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsAdded != 3 {
		t.Fatalf("RowsAdded = %d, want 3", st.RowsAdded)
	}
	nextKeys := componentKeys(t, next)
	if len(nextKeys) != len(baseKeys)+1 {
		t.Fatalf("components: %d -> %d, want exactly one more", len(baseKeys), len(nextKeys))
	}
	have := map[string]int{}
	for _, k := range nextKeys {
		have[k]++
	}
	for _, k := range baseKeys {
		if have[k] == 0 {
			t.Fatalf("untouched component key vanished after delta: %q", k)
		}
		have[k]--
	}
	if got := DiffComponents(base, next); got != 1 {
		t.Fatalf("DiffComponents = %d, want 1", got)
	}
}

// TestKernelCtxCanceled pins the kernel-phase cancellation-latency fix: a
// cancelled context aborts KernelCtx mid-fixpoint instead of running the
// reduction to completion, and the failed attempt is not cached — a later
// call with a live context still succeeds.
func TestKernelCtxCanceled(t *testing.T) {
	q := cq.MustParse("qmchain :- R(x,y), R(y,z)")
	rng := rand.New(rand.NewSource(7))
	d := datagen.ManyComponentChainDB(rng, 60, 4, 14)
	inst, err := Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inst.KernelCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("KernelCtx(cancelled) = %v, want context.Canceled", err)
	}
	k, err := inst.KernelCtx(context.Background())
	if err != nil || k == nil {
		t.Fatalf("KernelCtx after failed attempt: k=%v err=%v", k, err)
	}
}

// TestCarriedSplitDifferential pins the component split ApplyDelta
// carries across a delta: on every migrated instance, Components must
// equal a fresh Decompose of the instance's raw family — same components
// in the same order, same Global remaps, same normalized rows and costs —
// and every memoized fingerprint, carried or new, must equal a fresh
// rendering; the rows themselves must match a scratch Build, and
// DiffComponents must count what fresh fingerprints count. A weighted view
// of every eighth migrated instance must re-cost its split into exactly
// what decomposing the view's own family gives. Chains of random batches over the delta suite's query shapes
// run on a small dense domain, where most batches merge or split
// components, and on a clustered one, where every fact stays inside one
// of many small clusters of constants: most components are untouched and
// their carried pointers are what the comparison checks.
func TestCarriedSplitDifferential(t *testing.T) {
	queries := []string{
		"qchain :- R(x,y), R(y,z)",
		"qtri :- R(x,y), R(y,z), R(z,x)",
		"qconf :- A(x), R(x,y), R(z,y), C(z)",
		"qexo :- A(x), R(x,y)^x",
	}
	const steps = 400
	ctx := context.Background()
	migrated, carried := 0, 0
	for qi, qs := range queries {
		q := cq.MustParse(qs)
		rels := relationsOf(q)
		for di, shape := range []randomShape{{domain: 8, cluster: 8, facts: 12}, {domain: 60, cluster: 4, facts: 45}} {
			rng := rand.New(rand.NewSource(int64(1000 + 10*qi + di)))
			costRng := rand.New(rand.NewSource(int64(2000 + 10*qi + di)))
			d := db.New()
			for _, r := range rels {
				for i := 0; i < shape.facts; i++ {
					d.AddTuple(shape.tuple(rng, d, r))
				}
			}
			inst, err := Build(ctx, q, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < steps; step++ {
				// Decompose and fingerprint the base so the delta has a
				// split and keys to carry.
				before := map[*Component]bool{}
				for _, c := range inst.Components() {
					inst.ComponentKey(c)
					before[c] = true
				}
				batch := shape.batch(rng, d, rels)
				work := d.Clone()
				next, _, err := ApplyDelta(ctx, inst, work, batch)
				if err != nil {
					t.Fatalf("%s step %d: %v", qs, step, err)
				}
				d = work
				if next.Unbreakable() {
					if inst, err = Build(ctx, q, d, nil); err != nil {
						t.Fatal(err)
					}
					continue
				}
				migrated++
				label := fmt.Sprintf("%s domain %d step %d", qs, shape.domain, step)
				scratch, err := Build(ctx, q, d, nil)
				if err != nil {
					t.Fatal(err)
				}
				compareInstances(t, label, 0, next, scratch)
				got := next.Components()
				want := Decompose(next.Family(true))
				compareSplits(t, label, got, want)
				if step%8 == 0 {
					// A weighted view re-costs the carried split, which
					// must be what decomposing its own family gives.
					wv := make([]int64, next.NumTuples())
					for i := range wv {
						wv[i] = 1 + costRng.Int63n(5)
					}
					view, err := next.WithWeights(wv)
					if err != nil {
						t.Fatal(err)
					}
					compareSplits(t, label+" weighted view", view.Components(), Decompose(view.Family(true)))
				}
				for _, c := range got {
					if before[c] {
						carried++
					}
					if k, fresh := next.ComponentKey(c), next.renderKey(c); k != fresh {
						t.Fatalf("%s: memoized key %q, fresh render %q", label, k, fresh)
					}
				}
				if g, w := DiffComponents(inst, next), diffByRender(inst, next); g != w {
					t.Fatalf("%s: DiffComponents = %d, fresh fingerprints differ on %d", label, g, w)
				}
				inst = next
			}
		}
	}
	if migrated < 3000 {
		t.Fatalf("only %d migrated instances checked, want at least 3000", migrated)
	}
	if carried == 0 {
		t.Fatal("no component was carried by pointer: the carried path never ran")
	}
	t.Logf("%d migrated instances, %d components carried by pointer", migrated, carried)
}

// diffByRender is DiffComponents computed from freshly rendered
// fingerprints alone.
func diffByRender(prev, cur *Instance) int {
	prevKeys := map[string]int{}
	for _, c := range prev.Components() {
		prevKeys[prev.renderKey(c)]++
	}
	changed := 0
	for _, c := range cur.Components() {
		if k := cur.renderKey(c); prevKeys[k] > 0 {
			prevKeys[k]--
		} else {
			changed++
		}
	}
	return changed
}

// compareSplits fails unless two decompositions agree component by
// component: Global remaps, normalized rows and costs.
func compareSplits(t *testing.T, label string, got, want []*Component) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d components carried, %d decomposed", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !slices.Equal(g.Global, w.Global) {
			t.Fatalf("%s: component %d Global %v, want %v", label, i, g.Global, w.Global)
		}
		if g.Fam.N != w.Fam.N || len(g.Fam.Rows) != len(w.Fam.Rows) || !slices.Equal(g.Fam.W, w.Fam.W) {
			t.Fatalf("%s: component %d family differs: N %d/%d, %d/%d rows, W %v/%v",
				label, i, g.Fam.N, w.Fam.N, len(g.Fam.Rows), len(w.Fam.Rows), g.Fam.W, w.Fam.W)
		}
		for r := range g.Fam.Rows {
			if !slices.Equal(g.Fam.Rows[r], w.Fam.Rows[r]) {
				t.Fatalf("%s: component %d row %d = %v, want %v", label, i, r, g.Fam.Rows[r], w.Fam.Rows[r])
			}
		}
	}
}

// randomShape draws facts over a domain of constants split into clusters
// of cluster constants each: every fact takes all its arguments from one
// cluster, so components never span clusters. Relations stay near facts
// tuples each.
type randomShape struct {
	domain, cluster, facts int
}

func (sh randomShape) tuple(rng *rand.Rand, d *db.Database, r relInfo) db.Tuple {
	base := sh.cluster * rng.Intn(sh.domain/sh.cluster)
	tup := db.Tuple{Rel: r.name, Arity: uint8(r.arity)}
	for i := 0; i < r.arity; i++ {
		tup.Args[i] = d.Const(fmt.Sprint(base + rng.Intn(sh.cluster)))
	}
	return tup
}

// batch builds 1–3 mutations against d's current contents. A mutation
// deletes a present fact with odds that grow with its relation's size and
// otherwise inserts an absent one, so each relation stays near sh.facts
// tuples however long the chain runs.
func (sh randomShape) batch(rng *rand.Rand, d *db.Database, rels []relInfo) []Mutation {
	tracked := d.Clone()
	n := 1 + rng.Intn(3)
	var out []Mutation
	for len(out) < n {
		r := rels[rng.Intn(len(rels))]
		if rel := tracked.Rel(r.name); rel != nil && rng.Intn(2*sh.facts) < rel.Len() {
			ts := rel.Tuples()
			tup := ts[rng.Intn(len(ts))]
			tracked.Remove(tup)
			out = append(out, Mutation{Tuple: tup})
			continue
		}
		if tup := sh.tuple(rng, tracked, r); !tracked.Has(tup) {
			tracked.AddTuple(tup)
			out = append(out, Mutation{Insert: true, Tuple: tup})
		}
	}
	return out
}

// TestComponentKeysCoverCosts pins the fingerprint side of one component
// cache for both cost models: a weighted instance's keys differ from the
// unweighted ones (even at all-ones costs), and raising one tuple's cost
// changes exactly the key of the component holding that tuple.
func TestComponentKeysCoverCosts(t *testing.T) {
	q := cq.MustParse("qmchain :- R(x,y), R(y,z)")
	rng := rand.New(rand.NewSource(12))
	d := datagen.ManyComponentChainDB(rng, 8, 3, 8)
	base, err := Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]int64, base.NumTuples())
	for i := range ones {
		ones[i] = 1
	}
	raised := append([]int64(nil), ones...)
	raised[0] = 3
	unitInst, err := base.WithWeights(ones)
	if err != nil {
		t.Fatal(err)
	}
	raisedInst, err := base.WithWeights(raised)
	if err != nil {
		t.Fatal(err)
	}
	// The three instances split the same rows alike, so their components
	// correspond by position.
	unitComps, costlyComps := unitInst.Components(), raisedInst.Components()
	for i, c := range base.Components() {
		plain, unit, costly := base.ComponentKey(c), unitInst.ComponentKey(unitComps[i]), raisedInst.ComponentKey(costlyComps[i])
		if plain == unit {
			t.Fatalf("component %d: all-ones weighted key equals the unweighted key", i)
		}
		if holds := c.Global[0] == 0; (unit != costly) != holds {
			t.Fatalf("component %d (holds tuple 0: %v): key changed = %v", i, holds, unit != costly)
		}
	}
}

// TestCostKeyListsUsedTuplesOnly pins the cost part of a weighted key to
// the tuples the component's normalized rows use. Here both components
// normalize to the one row {R(1,1)}, and each also holds a tuple that only
// a dropped superset row uses: listing the costs of all their tuples in
// tuple order would read 5, 7 for both, although R(1,1) costs 7 in one and
// 5 in the other.
func TestCostKeyListsUsedTuplesOnly(t *testing.T) {
	tuples := []db.Tuple{db.NewTuple("R", 0, 0), db.NewTuple("R", 1, 1), db.NewTuple("R", 2, 2)}
	key := func(rows [][]int32, w []int64) string {
		in := &Instance{tuples: tuples, weights: w}
		comps := decompose(rows, len(tuples), w)
		if len(comps) != 1 {
			t.Fatalf("%d components, want 1", len(comps))
		}
		return in.ComponentKey(comps[0])
	}
	a := key([][]int32{{1}, {0, 1}}, []int64{5, 7, 1})
	b := key([][]int32{{1}, {1, 2}}, []int64{1, 5, 7})
	if a == b {
		t.Fatal("R(1,1) at cost 7 and at cost 5 share a key")
	}
	if c := key([][]int32{{1}, {1, 2}}, []int64{1, 7, 9}); a != c {
		t.Fatal("the cost of a tuple no kept row uses changed the key")
	}
}
