package witset

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/eval"
)

func chainInstance(t *testing.T) (*cq.Query, *db.Database) {
	t.Helper()
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	d := db.New()
	d.AddNames("R", "1", "2")
	d.AddNames("R", "2", "3")
	d.AddNames("R", "3", "3")
	return q, d
}

func TestBuildChain(t *testing.T) {
	q, d := chainInstance(t)
	inst, err := Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Unbreakable() {
		t.Fatal("chain instance reported unbreakable")
	}
	// Witnesses: 1→2→3, 2→3→3, 3→3→3.
	if inst.NumWitnesses() != 3 {
		t.Fatalf("NumWitnesses = %d, want 3", inst.NumWitnesses())
	}
	if inst.NumTuples() != 3 {
		t.Fatalf("NumTuples = %d, want 3", inst.NumTuples())
	}
	// Ids must round-trip and match the eval-level witness sets.
	sets, _ := eval.EndoWitnessSets(q, d)
	if len(sets) != len(inst.Rows()) {
		t.Fatalf("rows = %d, eval sets = %d", len(inst.Rows()), len(sets))
	}
	for i, row := range inst.Rows() {
		got := inst.TupleSet(row)
		if !reflect.DeepEqual(got, sets[i]) {
			t.Fatalf("row %d projects to %v, eval says %v", i, got, sets[i])
		}
		for _, id := range row {
			back, ok := inst.ID(inst.Tuple(id))
			if !ok || back != id {
				t.Fatalf("id %d does not round-trip", id)
			}
		}
	}
}

// TestWithWeightsTotalBound: a cost vector may total exactly
// MaxTotalWeight; one more, or a pair whose sum would wrap int64, is
// rejected.
func TestWithWeightsTotalBound(t *testing.T) {
	q, d := chainInstance(t)
	inst, err := Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	const maxInt64 = 1<<63 - 1
	cases := []struct {
		weights []int64
		ok      bool
	}{
		{[]int64{MaxTotalWeight - 2, 1, 1}, true},
		{[]int64{1, MaxTotalWeight - 2, 2}, false},
		{[]int64{1, maxInt64, maxInt64}, false},
		{[]int64{MaxTotalWeight, MaxTotalWeight, 1}, false},
	}
	for i, c := range cases {
		view, err := inst.WithWeights(c.weights)
		if c.ok && (err != nil || view == nil) {
			t.Errorf("case %d: %v, want accepted", i, err)
		}
		if !c.ok && err == nil {
			t.Errorf("case %d: accepted a total above 2^62", i)
		}
	}
}

func TestBuildUnbreakable(t *testing.T) {
	q := cq.MustParse("q :- R(x,y)^x")
	d := db.New()
	d.AddNames("R", "a", "b")
	inst, err := Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Unbreakable() {
		t.Fatal("all-exogenous witness not reported unbreakable")
	}
}

func TestBuildKeepFilter(t *testing.T) {
	q, d := chainInstance(t)
	one := d.Const("1")
	inst, err := Build(context.Background(), q, d, func(w eval.Witness) bool {
		return w[0] == one // only the witness starting at constant 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumWitnesses() != 1 {
		t.Fatalf("NumWitnesses = %d, want 1 after filtering", inst.NumWitnesses())
	}
}

func TestBuildCancellation(t *testing.T) {
	// Enough witnesses that the throttled poller actually fires.
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	rng := rand.New(rand.NewSource(1))
	d := datagen.Random(rng, q, 20, 400, 0.3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, q, d, nil); err != context.Canceled {
		t.Fatalf("Build on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestNewFamilyNormalization(t *testing.T) {
	raw := [][]int32{
		{2, 0, 1},
		{0, 1, 2},    // duplicate of the first (order-insensitive)
		{1, 0},       // subset: eliminates both rows above
		{3, 3, 4},    // within-row duplicate collapses
		{0, 1, 2, 4}, // superset of {0,1}
	}
	f := NewFamily(raw, 5, false)
	want := [][]int32{{0, 1}, {3, 4}}
	if !reflect.DeepEqual(f.Rows, want) {
		t.Fatalf("normalized rows = %v, want %v", f.Rows, want)
	}
	for i, row := range f.Rows {
		if f.Bits[i].Count() != len(row) {
			t.Fatalf("row %d: bitset count %d != %d elements", i, f.Bits[i].Count(), len(row))
		}
		for _, e := range row {
			if !f.Bits[i].Has(e) {
				t.Fatalf("row %d: bitset missing element %d", i, e)
			}
			found := false
			for _, si := range f.Occ[e] {
				if int(si) == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("occurrence list of %d misses row %d", e, i)
			}
		}
	}

	full := NewFamily(raw, 5, true)
	if len(full.Rows) != len(raw) {
		t.Fatalf("keepSupersets dropped rows: %d of %d kept", len(full.Rows), len(raw))
	}
}

func TestFamilyCachedPerVariant(t *testing.T) {
	q, d := chainInstance(t)
	inst, err := Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Family(false) != inst.Family(false) {
		t.Fatal("minimized family not cached")
	}
	if inst.Family(true) != inst.Family(true) {
		t.Fatal("raw family not cached")
	}
	if inst.Family(false) == inst.Family(true) {
		t.Fatal("variants must be distinct families")
	}
}

func TestBitsOps(t *testing.T) {
	const n = 200 // multiple words
	a, b := NewBits(n), NewBits(n)
	for i := int32(0); i < n; i += 3 {
		a.Set(i)
	}
	for i := int32(0); i < n; i += 6 {
		b.Set(i)
	}
	if !SubsetOf(b, a) {
		t.Fatal("multiples of 6 not a subset of multiples of 3")
	}
	if SubsetOf(a, b) {
		t.Fatal("multiples of 3 reported subset of multiples of 6")
	}
	if Disjoint(a, b) {
		t.Fatal("overlapping sets reported disjoint")
	}
	c := NewBits(n)
	c.Set(1)
	c.Set(199) // 1 and 199 are not multiples of 3
	if !Disjoint(a, c) {
		t.Fatal("disjoint sets reported overlapping")
	}
	c.Set(198) // 198 is
	if Disjoint(a, c) {
		t.Fatal("overlap across word boundary missed")
	}
	c.Unset(198)
	c.Unset(199)
	if c.Count() != 1 || !c.Has(1) || c.Has(199) {
		t.Fatalf("after Unset: count=%d", c.Count())
	}
	c.Or(b)
	if c.Count() != b.Count()+1 {
		t.Fatalf("Or: count=%d, want %d", c.Count(), b.Count()+1)
	}
	c.Clear()
	if c.Count() != 0 {
		t.Fatal("Clear left bits set")
	}
	if !Equal(NewBits(n), c) {
		t.Fatal("cleared set not equal to empty set")
	}
}
