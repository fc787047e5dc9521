package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/witset"
)

func buildInstance(t *testing.T, q *cq.Query, d *db.Database) *witset.Instance {
	t.Helper()
	inst, err := witset.Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestTopKMatchesResponsibilityPerTuple pins the ranking's entries against
// the single-tuple responsibility oracle: every ranked tuple's k must be
// exactly what ResponsibilityOnInstance reports for it, and every
// counterfactual tuple must appear in the full ranking.
func TestTopKMatchesResponsibilityPerTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(5001))
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	for round := 0; round < 8; round++ {
		d := datagen.ManyComponentChainDB(rng, 2+round%3, 3, 8)
		inst := buildInstance(t, q, d)
		if inst.Unbreakable() {
			continue
		}
		ranked, err := TopKResponsibilityOnInstance(context.Background(), inst, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[db.Tuple]int64{}
		for _, rt := range ranked {
			seen[rt.Tuple] = rt.K
		}
		for id := int32(0); id < int32(inst.NumTuples()); id++ {
			tup := inst.Tuple(id)
			k, _, err := ResponsibilityOnInstance(context.Background(), inst, d, tup)
			if err == ErrNotCounterfactual {
				if _, ok := seen[tup]; ok {
					t.Fatalf("round %d: non-counterfactual %s appears in the ranking", round, d.TupleString(tup))
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			got, ok := seen[tup]
			if !ok {
				t.Fatalf("round %d: counterfactual %s missing from the full ranking", round, d.TupleString(tup))
			}
			if got != int64(k) {
				t.Fatalf("round %d: ranking k(%s) = %d, responsibility k = %d", round, d.TupleString(tup), got, k)
			}
		}
	}
}

// TestTopKDeterministicOrder pins the tie-break contract: the ranking is
// sorted by (k ascending, rendered tuple ascending), and repeated runs
// return the identical ranking.
func TestTopKDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5002))
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	d := datagen.ManyComponentChainDB(rng, 4, 3, 8)
	inst := buildInstance(t, q, d)

	first, err := TopKResponsibilityOnInstance(context.Background(), inst, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) < 2 {
		t.Fatalf("want a multi-entry ranking, got %d", len(first))
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.K > b.K {
			t.Fatalf("rank %d: k %d after k %d — not sorted by responsibility", i, b.K, a.K)
		}
		if a.K == b.K && d.TupleString(a.Tuple) >= d.TupleString(b.Tuple) {
			t.Fatalf("rank %d: tie on k=%d broken as %s before %s — not lexicographic",
				i, a.K, d.TupleString(a.Tuple), d.TupleString(b.Tuple))
		}
	}
	for trial := 0; trial < 3; trial++ {
		again, err := TopKResponsibilityOnInstance(context.Background(), inst, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("trial %d: ranking differs between runs:\n%v\n%v", trial, again, first)
		}
	}
}

// TestTopKLargerThanUniverse: k beyond the number of counterfactual tuples
// returns the full ranking; k = 0 means uncapped; k truncates exactly.
func TestTopKLargerThanUniverse(t *testing.T) {
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	d := db.New()
	d.AddNames("R", "1", "2")
	d.AddNames("R", "2", "3")
	d.AddNames("R", "3", "3")
	inst := buildInstance(t, q, d)

	full, err := TopKResponsibilityOnInstance(context.Background(), inst, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 3 {
		t.Fatalf("full ranking has %d entries, want 3", len(full))
	}
	huge, err := TopKResponsibilityOnInstance(context.Background(), inst, d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(huge) != fmt.Sprint(full) {
		t.Fatalf("k=1000 ranking differs from uncapped:\n%v\n%v", huge, full)
	}
	one, err := TopKResponsibilityOnInstance(context.Background(), inst, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || fmt.Sprint(one[0]) != fmt.Sprint(full[0]) {
		t.Fatalf("k=1 = %v, want the top entry of %v", one, full)
	}
}

// TestTopKUnbreakableAndExogenous: an unbreakable instance refuses with
// ErrUnbreakable, and exogenous tuples never appear in a ranking (they are
// outside the witness universe by construction).
func TestTopKUnbreakableAndExogenous(t *testing.T) {
	qx := cq.MustParse("q :- R(x,y)^x")
	d := db.New()
	d.AddNames("R", "a", "b")
	inst := buildInstance(t, qx, d)
	if _, err := TopKResponsibilityOnInstance(context.Background(), inst, d, 1); !errors.Is(err, ErrUnbreakable) {
		t.Fatalf("unbreakable topk err = %v, want ErrUnbreakable", err)
	}

	// Mixed query: A is exogenous, R endogenous — only R tuples may rank.
	q := cq.MustParse("qx :- A(x)^x, R(x,y)")
	d2 := db.New()
	d2.AddNames("A", "a")
	d2.AddNames("R", "a", "b")
	d2.AddNames("R", "a", "c")
	inst2 := buildInstance(t, q, d2)
	ranked, err := TopKResponsibilityOnInstance(context.Background(), inst2, d2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no ranked tuples on a breakable instance")
	}
	for _, rt := range ranked {
		if got := d2.TupleString(rt.Tuple); got[0] == 'A' {
			t.Fatalf("exogenous tuple %s in ranking", got)
		}
	}
}

// TestTopKStreamedMatchesCollected: the emit-streamed ranking is the
// collected ranking, entry for entry and in the same order, and an emit
// error aborts the stream after exactly the entries already delivered.
func TestTopKStreamedMatchesCollected(t *testing.T) {
	rng := rand.New(rand.NewSource(5003))
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	d := datagen.ManyComponentChainDB(rng, 3, 3, 9)
	inst := buildInstance(t, q, d)

	collected, err := TopKResponsibilityOnInstance(context.Background(), inst, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []RankedTuple
	total, err := TopKResponsibilityFunc(context.Background(), inst, d, 0,
		func(rank int, rt RankedTuple) error {
			if rank != len(streamed) {
				t.Fatalf("rank %d delivered out of order (have %d)", rank, len(streamed))
			}
			streamed = append(streamed, rt)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if total != len(collected) || fmt.Sprint(streamed) != fmt.Sprint(collected) {
		t.Fatalf("streamed (total=%d) differs from collected (%d):\n%v\n%v",
			total, len(collected), streamed, collected)
	}

	boom := errors.New("stop after two")
	var got int
	_, err = TopKResponsibilityFunc(context.Background(), inst, d, 0,
		func(rank int, rt RankedTuple) error {
			got++
			if got == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) || got != 2 {
		t.Fatalf("emit error: err = %v after %d entries, want boom after 2", err, got)
	}
}

// TestTopKWeightedRanking: per-tuple costs reorder the ranking — a tuple
// whose cheapest contingency uses expensive tuples ranks below one with a
// cheap contingency, and gamma costs match the reported k.
func TestTopKWeightedRanking(t *testing.T) {
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	// Two disjoint 2-edge paths: every edge has k=1 under unit costs.
	d := db.New()
	d.AddNames("R", "a", "b")
	d.AddNames("R", "b", "c")
	d.AddNames("R", "x", "y")
	d.AddNames("R", "y", "z")
	base := buildInstance(t, q, d)

	uniform, err := TopKResponsibilityOnInstance(context.Background(), base, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range uniform {
		if rt.K != 1 {
			t.Fatalf("uniform k(%s) = %d, want 1", d.TupleString(rt.Tuple), rt.K)
		}
	}

	// Make the a-b-c path's tuples expensive. A contingency for tuple t
	// must falsify every OTHER witness too, so each edge's Γ is one edge
	// of the opposite path: the expensive edges get a cheap Γ (k=1) and
	// rank first, while the cheap edges must pay for an expensive edge
	// (k=5) and fall to the bottom.
	wv := make([]int64, base.NumTuples())
	for id := range wv {
		wv[id] = 1
		s := d.TupleString(base.Tuple(int32(id)))
		if s == "R(a,b)" || s == "R(b,c)" {
			wv[id] = 5
		}
	}
	winst, err := base.WithWeights(wv)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := TopKResponsibilityOnInstance(context.Background(), winst, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(weighted) != 4 {
		t.Fatalf("weighted ranking has %d entries, want 4", len(weighted))
	}
	for i, rt := range weighted {
		s := d.TupleString(rt.Tuple)
		expensive := s == "R(a,b)" || s == "R(b,c)"
		if i < 2 {
			if !expensive || rt.K != 1 {
				t.Fatalf("rank %d: %s k=%d, want an expensive-path edge with k=1", i, s, rt.K)
			}
		} else {
			if expensive || rt.K != 5 {
				t.Fatalf("rank %d: %s k=%d, want a cheap-path edge with k=5", i, s, rt.K)
			}
		}
		// The reported gamma's cost must equal k in every case.
		gcost := int64(0)
		for _, g := range rt.Gamma {
			gs := d.TupleString(g)
			if gs == "R(a,b)" || gs == "R(b,c)" {
				gcost += 5
			} else {
				gcost++
			}
		}
		if gcost != rt.K {
			t.Fatalf("rank %d: %s gamma costs %d, k = %d", i, s, gcost, rt.K)
		}
	}
}

// TestTopKPrefixOfFullRanking pins the cut: for every k, the top-k
// ranking is the first k entries of the uncapped (k = 0) ranking,
// contingency sets included, on unweighted and weighted instances alike.
// Contingency sets are assembled only for the entries a call returns, so
// this is what keeps a capped call's Γ identical to the full ranking's.
func TestTopKPrefixOfFullRanking(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	rng := rand.New(rand.NewSource(5004))
	type instance struct {
		inst *witset.Instance
		d    *db.Database
	}
	var cases []instance
	for round := 0; round < 6; round++ {
		d := datagen.ManyComponentChainDB(rng, 2+round%3, 3, 8)
		inst := buildInstance(t, q, d)
		cases = append(cases, instance{inst, d})
		wv := make([]int64, inst.NumTuples())
		for id := range wv {
			wv[id] = 1 + rng.Int63n(4)
		}
		winst, err := inst.WithWeights(wv)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{winst, d})
	}
	for ci, c := range cases {
		full, err := TopKResponsibilityOnInstance(ctx, c.inst, c.d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= len(full)+1; k++ {
			got, err := TopKResponsibilityOnInstance(ctx, c.inst, c.d, k)
			if err != nil {
				t.Fatal(err)
			}
			want := full[:min(k, len(full))]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("case %d (weighted %v), k=%d:\n got %v\nwant %v", ci, c.inst.Weights() != nil, k, got, want)
			}
		}
	}
}
