package cnfenc

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/witset"
)

// randomFamily generates a normalized set family over n elements with
// non-empty random rows.
func randomFamily(rng *rand.Rand, n, rows int) *witset.Family {
	raw := make([][]int32, 0, rows)
	for i := 0; i < rows; i++ {
		size := 1 + rng.Intn(3)
		row := make([]int32, 0, size)
		for j := 0; j < size; j++ {
			row = append(row, int32(rng.Intn(n)))
		}
		raw = append(raw, row)
	}
	return witset.NewFamily(raw, n, false)
}

// bruteMinHit computes the minimum hitting set size by subset enumeration
// (n ≤ ~16).
func bruteMinHit(fam *witset.Family) int {
	if len(fam.Rows) == 0 {
		return 0
	}
	for size := 0; size <= fam.N; size++ {
		if canHit(fam, 0, size, make([]bool, fam.N)) {
			return size
		}
	}
	return fam.N
}

func canHit(fam *witset.Family, from, budget int, chosen []bool) bool {
	allHit := true
	var unhit []int32
	for _, row := range fam.Rows {
		hit := false
		for _, e := range row {
			if chosen[e] {
				hit = true
				break
			}
		}
		if !hit {
			allHit = false
			unhit = row
			break
		}
	}
	if allHit {
		return true
	}
	if budget == 0 {
		return false
	}
	for _, e := range unhit {
		chosen[e] = true
		if canHit(fam, from, budget-1, chosen) {
			chosen[e] = false
			return true
		}
		chosen[e] = false
	}
	return false
}

// TestIncrementalSolverMatchesScratch pins the assumption-gated counter
// against both the per-budget scratch encoding and a brute-force hitting
// set oracle: for every budget k, SolveBudget(k) must be satisfiable
// exactly when k ≥ the minimum hitting set size, the returned set must hit
// all rows within budget, and the verdicts must survive arbitrary probe
// orders over the same persistent solver.
func TestIncrementalSolverMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(10)
		fam := randomFamily(rng, n, 1+rng.Intn(2*n))
		min := bruteMinHit(fam)
		scratch := NewFamilyEncoder(fam)

		// Ascending, descending, and shuffled probe orders all reuse one
		// clause database; learned lemmas must never flip a verdict.
		orders := [][]int{}
		asc := make([]int, n+1)
		desc := make([]int, n+1)
		for k := 0; k <= n; k++ {
			asc[k] = k
			desc[k] = n - k
		}
		shuf := append([]int(nil), asc...)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		orders = append(orders, asc, desc, shuf)

		for oi, order := range orders {
			inc := NewIncrementalSolver(fam, fam.N-1)
			for _, k := range order {
				assign, ok, err := inc.SolveBudget(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := k >= min; ok != want {
					t.Fatalf("trial %d order %d: SolveBudget(%d) = %v, min = %d (rows %v)",
						trial, oi, k, ok, min, fam.Rows)
				}
				if _, scratchOK := scratch.Encode(k).Solve(); scratchOK != ok {
					t.Fatalf("trial %d order %d: incremental(%d)=%v scratch=%v",
						trial, oi, k, ok, scratchOK)
				}
				if !ok {
					continue
				}
				chosen := inc.Chosen(assign)
				if len(chosen) > k {
					t.Fatalf("trial %d: budget %d model chose %d elements", trial, k, len(chosen))
				}
				hit := make([]bool, fam.N)
				for _, e := range chosen {
					hit[e] = true
				}
				for _, row := range fam.Rows {
					rowHit := false
					for _, e := range row {
						if hit[e] {
							rowHit = true
							break
						}
					}
					if !rowHit {
						t.Fatalf("trial %d: budget %d model misses row %v", trial, k, row)
					}
				}
			}
		}
	}
}

// TestIncrementalSolverBudgetCap pins the cap semantics: budgets at or
// above the universe size need no gating literal, and a single-budget cap
// behaves like the full-range encoder at that budget.
func TestIncrementalSolverBudgetCap(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	fam := randomFamily(rng, 6, 8)
	min := bruteMinHit(fam)
	for k := 0; k <= 6; k++ {
		inc := NewIncrementalSolver(fam, k)
		if len(inc.Assume(k)) == 0 != (k >= fam.N) {
			t.Fatalf("Assume(%d) gating literal presence wrong", k)
		}
		_, ok, err := inc.SolveBudget(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		if want := k >= min; ok != want {
			t.Fatalf("capped SolveBudget(%d) = %v, min = %d", k, ok, min)
		}
	}
}

// componentFamily builds a single-component witness family from a chain
// workload, the shape the engine's binary search probes.
func componentFamily(tb testing.TB, seed int64, n, chords int) *witset.Family {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	d := datagen.ChainDB(rng, n, chords)
	inst, err := witset.Build(context.Background(), q, d, nil)
	if err != nil {
		tb.Fatal(err)
	}
	comps := inst.Components()
	if len(comps) == 0 {
		tb.Fatal("no components")
	}
	best := comps[0].Fam
	for _, c := range comps[1:] {
		if c.Fam.N > best.N {
			best = c.Fam
		}
	}
	return best
}

// binarySearchAssume is the engine's incremental search loop: a greedy
// upper bound caps the probe range and the counter width, then one clause
// database answers every budget by assumption.
func binarySearchAssume(tb testing.TB, fam *witset.Family) int {
	best := len(witset.GreedyHittingSet(fam))
	lo, hi := 1, best-1
	if lo > hi {
		return best
	}
	inc := NewIncrementalSolver(fam, hi)
	for lo <= hi {
		mid := lo + (hi-lo)/2
		_, ok, err := inc.SolveBudget(context.Background(), mid)
		if err != nil {
			tb.Fatal(err)
		}
		if ok {
			best, hi = mid, mid-1
		} else {
			lo = mid + 1
		}
	}
	return best
}

// binarySearchScratch is the pre-incremental loop with the same greedy
// seeding: re-render the counter and re-solve from scratch at every probe,
// so the benchmark pair isolates assumption reuse rather than search-range
// differences.
func binarySearchScratch(tb testing.TB, fam *witset.Family) int {
	best := len(witset.GreedyHittingSet(fam))
	lo, hi := 1, best-1
	if lo > hi {
		return best
	}
	enc := NewFamilyEncoder(fam)
	for lo <= hi {
		mid := lo + (hi-lo)/2
		_, ok, err := enc.Encode(mid).SolveCtx(context.Background())
		if err != nil {
			tb.Fatal(err)
		}
		if ok {
			best, hi = mid, mid-1
		} else {
			lo = mid + 1
		}
	}
	return best
}

func TestBinarySearchAssumeMatchesScratch(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		fam := componentFamily(t, 700+seed, 10+int(seed), 8)
		if a, s := binarySearchAssume(t, fam), binarySearchScratch(t, fam); a != s {
			t.Fatalf("seed %d: assume search = %d, scratch search = %d", seed, a, s)
		}
	}
}

// BenchmarkSATIncrementalAssume and BenchmarkSATIncrementalScratch race the
// two binary-search implementations on the same recorded component
// workload; the assumption-based search is the tentpole contract and is
// gated by cmd/benchgate against the committed baseline.
func BenchmarkSATIncrementalAssume(b *testing.B) {
	fam := componentFamily(b, 42, 24, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binarySearchAssume(b, fam)
	}
}

func BenchmarkSATIncrementalScratch(b *testing.B) {
	fam := componentFamily(b, 42, 24, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binarySearchScratch(b, fam)
	}
}

// bruteMinCost computes the minimum total cost of a hitting set by subset
// enumeration (n ≤ ~16), with costs from fam.W (1 each when nil), and the
// total cost of the universe.
func bruteMinCost(fam *witset.Family) (min, total int64) {
	for e := 0; e < fam.N; e++ {
		total += fam.Cost(int32(e))
	}
	min = total
	for mask := 0; mask < 1<<fam.N; mask++ {
		cost := int64(0)
		for e := 0; e < fam.N; e++ {
			if mask&(1<<e) != 0 {
				cost += fam.Cost(int32(e))
			}
		}
		if cost >= min {
			continue
		}
		hitsAll := true
		for _, row := range fam.Rows {
			hit := false
			for _, e := range row {
				if mask&(1<<e) != 0 {
					hit = true
					break
				}
			}
			if !hit {
				hitsAll = false
				break
			}
		}
		if hitsAll {
			min = cost
		}
	}
	return min, total
}

// TestIncrementalSolverCostBruteForce pins the one counter, on unit and on
// weighted families (costs 1–9), against brute force at every budget from
// 0 to the universe's total cost, probed in a random order over one
// persistent solver: SolveBudget(k) is satisfiable exactly when the
// minimum cost is ≤ k, and every model's chosen set hits every row at a
// Cost of at most k. The weighted half is what exercises the
// downward-monotone clauses and the saturating register increments.
func TestIncrementalSolverCostBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	ctx := context.Background()
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(10)
		fam := randomFamily(rng, n, 1+rng.Intn(2*n))
		if trial%2 == 1 {
			fam.W = make([]int64, n)
			for e := range fam.W {
				fam.W[e] = 1 + rng.Int63n(9)
			}
		}
		min, total := bruteMinCost(fam)
		inc := NewIncrementalSolver(fam, int(total-1))
		for _, k := range rng.Perm(int(total) + 1) {
			assign, ok, err := inc.SolveBudget(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(k) >= min; ok != want {
				t.Fatalf("trial %d: SolveBudget(%d) = %v, min cost = %d (rows %v, w %v)",
					trial, k, ok, min, fam.Rows, fam.W)
			}
			if !ok {
				continue
			}
			if cost := inc.Cost(assign); cost > int64(k) {
				t.Fatalf("trial %d: budget %d model costs %d (w %v)", trial, k, cost, fam.W)
			}
			hit := make([]bool, fam.N)
			for _, e := range inc.Chosen(assign) {
				hit[e] = true
			}
			for _, row := range fam.Rows {
				rowHit := false
				for _, e := range row {
					rowHit = rowHit || hit[e]
				}
				if !rowHit {
					t.Fatalf("trial %d: budget %d model misses row %v", trial, k, row)
				}
			}
		}
	}
}
