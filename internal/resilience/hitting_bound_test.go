package resilience

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/witset"
)

// TestBoundHierarchyAdmissible pins the two lower bounds and the greedy
// upper bound against the exact optimum on random families: pack ≤ ρ,
// lp ≤ ρ, greedy ≥ ρ, and greedy's output actually hits every row. Any
// violation would make the branch-and-bound prune an optimal solution (lower
// bounds) or start from an invalid incumbent (upper bound).
func TestBoundHierarchyAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(12)
		raw := make([][]int32, 0, 1+rng.Intn(2*n))
		for i := 0; i < cap(raw); i++ {
			size := 1 + rng.Intn(4)
			row := make([]int32, 0, size)
			for j := 0; j < size; j++ {
				row = append(row, int32(rng.Intn(n)))
			}
			raw = append(raw, row)
		}
		fam := witset.NewFamily(raw, n, false)
		if len(fam.Rows) == 0 {
			continue
		}

		opt, _, err := SolveFamily(context.Background(), fam, -1)
		if err != nil {
			t.Fatal(err)
		}

		h := newHittingSet(fam)
		if pack := h.lowerBound(); pack > opt {
			t.Fatalf("trial %d: packing bound %d > optimum %d (rows %v)", trial, pack, opt, fam.Rows)
		}
		if lp := h.lpBound(); lp > opt {
			t.Fatalf("trial %d: LP bound %d > optimum %d (rows %v)", trial, lp, opt, fam.Rows)
		}

		greedy := h.greedy()
		if int64(len(greedy)) < opt {
			t.Fatalf("trial %d: greedy %d below optimum %d", trial, len(greedy), opt)
		}
		hit := make([]bool, len(fam.Rows))
		for _, e := range greedy {
			for _, si := range fam.Occ[e] {
				hit[si] = true
			}
		}
		for si, ok := range hit {
			if !ok {
				t.Fatalf("trial %d: greedy set %v misses row %v", trial, greedy, fam.Rows[si])
			}
		}
	}
}

// TestWeightedBoundHierarchyAdmissible is the bound hierarchy under random
// weight vectors: weighted packing ≤ ρ_w, weighted LP dual-greedy ≤ ρ_w,
// coverage-per-cost greedy ≥ ρ_w with every row hit. With all weights 1
// this degenerates to TestBoundHierarchyAdmissible; the random costs are
// what exercise the per-cost normalization in each bound.
func TestWeightedBoundHierarchyAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(919))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(12)
		raw := make([][]int32, 0, 1+rng.Intn(2*n))
		for i := 0; i < cap(raw); i++ {
			size := 1 + rng.Intn(4)
			row := make([]int32, 0, size)
			for j := 0; j < size; j++ {
				row = append(row, int32(rng.Intn(n)))
			}
			raw = append(raw, row)
		}
		fam := witset.NewFamily(raw, n, false)
		if len(fam.Rows) == 0 {
			continue
		}
		w := make([]int64, n)
		for i := range w {
			w[i] = 1 + rng.Int63n(9)
		}
		fam.W = w

		opt, _, err := SolveFamily(context.Background(), fam, -1)
		if err != nil {
			t.Fatal(err)
		}

		h := newHittingSet(fam)
		if pack := h.lowerBound(); pack > opt {
			t.Fatalf("trial %d: weighted packing bound %d > optimum %d (rows %v, w %v)",
				trial, pack, opt, fam.Rows, w)
		}
		if lp := h.lpBound(); lp > opt {
			t.Fatalf("trial %d: weighted LP bound %d > optimum %d (rows %v, w %v)",
				trial, lp, opt, fam.Rows, w)
		}

		greedy := witset.GreedyHittingSet(fam)
		cost := int64(0)
		for _, e := range greedy {
			cost += w[e]
		}
		if cost < opt {
			t.Fatalf("trial %d: greedy cost %d below optimum %d", trial, cost, opt)
		}
		hit := make([]bool, len(fam.Rows))
		for _, e := range greedy {
			for _, si := range fam.Occ[e] {
				hit[si] = true
			}
		}
		for si, ok := range hit {
			if !ok {
				t.Fatalf("trial %d: greedy set %v misses row %v", trial, greedy, fam.Rows[si])
			}
		}
	}
}

// TestLPBoundCanExceedPacking documents why the LP bound earns its place in
// the hierarchy: on the triangle family {a,b},{b,c},{a,c} only one row packs
// disjointly (bound 1) while the fractional duals sum to 3/2, which rounds
// up to the true optimum 2.
func TestLPBoundCanExceedPacking(t *testing.T) {
	fam := witset.NewFamily([][]int32{{0, 1}, {1, 2}, {0, 2}}, 3, false)
	h := newHittingSet(fam)
	pack, lp := h.lowerBound(), h.lpBound()
	if pack != 1 {
		t.Fatalf("packing bound on triangle = %d, want 1", pack)
	}
	if lp != 2 {
		t.Fatalf("LP bound on triangle = %d, want 2", lp)
	}
}
