package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cnfenc"
	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/resilience"
	"repro/internal/witset"
)

// randomWeightedFamily draws a random hitting-set family over n elements
// with per-element costs in [1, maxW].
func randomWeightedFamily(rng *rand.Rand, n, rows, maxW int) *witset.Family {
	raw := make([][]int32, rows)
	for i := range raw {
		size := 1 + rng.Intn(3)
		row := make([]int32, size)
		for j := range row {
			row[j] = int32(rng.Intn(n))
		}
		raw[i] = row
	}
	fam := witset.NewFamily(raw, n, false)
	w := make([]int64, n)
	for i := range w {
		w[i] = 1 + rng.Int63n(int64(maxW))
	}
	fam.W = w
	return fam
}

// TestDifferentialWeightedSATVsExact pins the two weighted per-component
// oracles against each other: the weighted SAT binary search (gcd-
// normalized incremental counter) and the weighted branch-and-bound must
// report the same minimum cost on random weighted families, and the SAT
// side's chosen set must actually cost what it claims.
func TestDifferentialWeightedSATVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4001))
	families := 0
	for round := 0; round < 350; round++ {
		fam := randomWeightedFamily(rng, 5+rng.Intn(6), 4+rng.Intn(7), 7)
		if len(fam.Rows) == 0 {
			continue
		}
		families++
		want, _, err := resilience.SolveFamily(context.Background(), fam, -1)
		if err != nil {
			t.Fatal(err)
		}
		got, ids, err := satFamilySearch(context.Background(), fam)
		if err != nil {
			t.Fatalf("round %d: weighted SAT search: %v", round, err)
		}
		if got != want {
			t.Fatalf("round %d: SAT cost = %d, branch-and-bound cost = %d", round, got, want)
		}
		cost := int64(0)
		hit := make([]bool, len(fam.Rows))
		for _, e := range ids {
			cost += fam.W[e]
			for _, si := range fam.Occ[e] {
				hit[si] = true
			}
		}
		if cost != got {
			t.Fatalf("round %d: SAT chosen set costs %d, reported %d", round, cost, got)
		}
		for si, ok := range hit {
			if !ok {
				t.Fatalf("round %d: SAT chosen set leaves row %d unhit", round, si)
			}
		}
	}
	if families < 300 {
		t.Fatalf("only %d families generated, want >= 300", families)
	}
}

// TestDifferentialWeightedPortfolioAgreement pins the engine-level race:
// SolveWeightedInstance with the portfolio on and off must report the same
// minimum cost on random weighted instances (the racers are the two
// oracles of TestDifferentialWeightedSATVsExact plus kernelization).
func TestDifferentialWeightedPortfolioAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(4002))
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	plain := New(Config{})
	raced := New(Config{Portfolio: true})
	for round := 0; round < 30; round++ {
		d := datagen.ManyComponentChainDB(rng, 2+round%4, 3, 9)
		base, err := witset.Build(context.Background(), q, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		wv := make([]int64, base.NumTuples())
		for i := range wv {
			wv[i] = 1 + rng.Int63n(6)
		}
		inst, err := base.WithWeights(wv)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := plain.SolveWeightedInstance(context.Background(), inst)
		got, gotErr := raced.SolveWeightedInstance(context.Background(), inst)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("round %d: exact err = %v, portfolio err = %v", round, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Cost != want.Cost {
			t.Fatalf("round %d: portfolio cost = %d, exact cost = %d", round, got.Cost, want.Cost)
		}
	}
}

// TestWeightedSATWidthCapDecline pins the decline protocol: a weight
// vector whose normalized counter would exceed cnfenc.MaxRegisters makes
// the SAT search refuse with ErrWidthTooLarge, and the race treats that as
// a missing contender — the exact side still answers.
func TestWeightedSATWidthCapDecline(t *testing.T) {
	// Two disjoint unit rows with huge coprime costs: the optimum is
	// 4999+5003, the gcd is 1, so the counter would need 2·10002 registers.
	fam := witset.NewFamily([][]int32{{0}, {1}}, 2, false)
	fam.W = []int64{4999, 5003}
	if _, _, err := satFamilySearch(context.Background(), fam); !errors.Is(err, cnfenc.ErrWidthTooLarge) {
		t.Fatalf("satFamilySearch err = %v, want ErrWidthTooLarge", err)
	}
	e := New(Config{Portfolio: true})
	cost, ids, viaSAT, err := e.raceComponent(context.Background(), fam)
	if err != nil {
		t.Fatalf("raceComponent: %v", err)
	}
	if viaSAT {
		t.Fatal("race reports a SAT win after the SAT side declined")
	}
	if cost != 4999+5003 || len(ids) != 2 {
		t.Fatalf("race cost = %d (%d ids), want %d (2 ids)", cost, len(ids), 4999+5003)
	}

	// A kernel-resistant triangle (qchain over a 3-cycle) with costs near
	// 2^61: its greedy cover costs 2^62+1, and 3·(2^62+1) registers
	// overflow int64, so the budget check must not multiply.
	tri := witset.NewFamily([][]int32{{0, 1}, {1, 2}, {0, 2}}, 3, false)
	tri.W = []int64{1 << 61, 1<<61 + 1, 1<<61 + 2}
	if _, _, err := satFamilySearch(context.Background(), tri); !errors.Is(err, cnfenc.ErrWidthTooLarge) {
		t.Fatalf("triangle: satFamilySearch err = %v, want ErrWidthTooLarge", err)
	}
	cost, ids, viaSAT, err = e.raceComponent(context.Background(), tri)
	if err != nil {
		t.Fatalf("triangle: raceComponent: %v", err)
	}
	if want := int64(1<<62 + 1); viaSAT || cost != want || len(ids) != 2 {
		t.Fatalf("triangle: race cost = %d (%d ids, SAT %v), want %d (2 ids, exact)", cost, len(ids), viaSAT, want)
	}
}

// TestWeightedSATScalingProbesIdentical pins the gcd normalization: the
// search for c·w probes the exact same budgets as for w, so uniform
// scaling can never flip satisfiability — costs scale by exactly c.
func TestWeightedSATScalingProbesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4003))
	for round := 0; round < 40; round++ {
		fam := randomWeightedFamily(rng, 6, 6, 5)
		if len(fam.Rows) == 0 {
			continue
		}
		base, _, err := satFamilySearch(context.Background(), fam)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []int64{3, 7} {
			scaled := *fam
			sw := make([]int64, len(fam.W))
			for i := range sw {
				sw[i] = c * fam.W[i]
			}
			scaled.W = sw
			got, _, err := satFamilySearch(context.Background(), &scaled)
			if err != nil {
				t.Fatal(err)
			}
			if got != c*base {
				t.Fatalf("round %d: scale %d cost = %d, want %d", round, c, got, c*base)
			}
		}
	}
}

// bruteComponentCost is the reference minimum cost of a component family:
// exhaustive search over its (small) local universe, costs from W.
func bruteComponentCost(fam *witset.Family) int64 {
	best := int64(-1)
	for mask := 0; mask < 1<<fam.N; mask++ {
		cost := int64(0)
		for e := 0; e < fam.N; e++ {
			if mask&(1<<e) != 0 {
				cost += fam.Cost(int32(e))
			}
		}
		if best >= 0 && cost >= best {
			continue
		}
		hitsAll := true
		for _, row := range fam.Rows {
			hit := false
			for _, e := range row {
				hit = hit || mask&(1<<e) != 0
			}
			hitsAll = hitsAll && hit
		}
		if hitsAll {
			best = cost
		}
	}
	return best
}

// TestDifferentialCompCacheKeepsWeightedApart pins the component cache
// across cost models: one NoClone portfolio engine solves the same
// many-component database weighted (skewed costs), unweighted, and in the
// first kind again, in both orders. Every answer must match a brute-force
// reference (the sum of exhaustive per-component minima). The middle solve
// must find no entry of the other cost model in the cache, and the
// repeated solve must answer every component from it, running no solver.
func TestDifferentialCompCacheKeepsWeightedApart(t *testing.T) {
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4004))
	for round := 0; round < 4; round++ {
		d := datagen.ManyComponentChainDB(rng, 6, 3, 9)
		skew := datagen.SkewedWeights(rng, d, 0.4, 9)
		for _, weightedFirst := range []bool{true, false} {
			e := New(Config{Portfolio: true, NoClone: true})
			base, err := e.InstanceFor(ctx, q, d)
			if err != nil {
				t.Fatal(err)
			}
			wv := make([]int64, base.NumTuples())
			for id := range wv {
				wv[id] = 1
				if c, ok := skew[d.TupleString(base.Tuple(int32(id)))]; ok {
					wv[id] = c
				}
			}
			// solve answers one request, deriving a fresh weighted view
			// from the cached IR per weighted request, as the Session does.
			solve := func(weighted bool) (cost, want int64, comps int) {
				inst := base
				if weighted {
					if inst, err = base.WithWeights(wv); err != nil {
						t.Fatal(err)
					}
				}
				for _, c := range inst.Components() {
					want += bruteComponentCost(c.Fam)
				}
				var gamma []db.Tuple
				if weighted {
					res, err := e.SolveWeightedInstance(ctx, inst)
					if err != nil {
						t.Fatal(err)
					}
					cost, gamma = res.Cost, res.ContingencySet
				} else {
					res, _, err := e.Solve(ctx, q, d)
					if err != nil {
						t.Fatal(err)
					}
					cost, gamma = int64(res.Rho), res.ContingencySet
				}
				gcost := int64(0)
				for _, tup := range gamma {
					id, _ := inst.ID(tup)
					gcost += inst.Weight(id)
				}
				if gcost != cost {
					t.Fatalf("round %d weighted=%v: contingency costs %d, reported %d", round, weighted, gcost, cost)
				}
				return cost, want, len(inst.Components())
			}
			kinds := []bool{weightedFirst, !weightedFirst, weightedFirst}
			for step, weighted := range kinds {
				before := e.Stats()
				cost, want, comps := solve(weighted)
				after := e.Stats()
				if cost != want {
					t.Fatalf("round %d step %d weighted=%v: cost = %d, brute force = %d", round, step, weighted, cost, want)
				}
				hits := after.CompCacheHits - before.CompCacheHits
				switch step {
				case 1:
					if hits != 0 {
						t.Fatalf("round %d: weighted=%v solve hit %d cache entries of the other cost model", round, weighted, hits)
					}
				case 2:
					if hits != int64(comps) || after.SolverRuns != before.SolverRuns {
						t.Fatalf("round %d: repeated weighted=%v solve: %d cache hits for %d components, %d solver runs",
							round, weighted, hits, comps, after.SolverRuns-before.SolverRuns)
					}
				}
			}
		}
	}
}

// TestWeightedRequestsKeepUnweightedEntries pins the split of the
// component cache: weighted requests with fresh weights, many more
// components than the cap between them, must not evict the unweighted
// entries an unweighted re-solve (a live update's, say) reads.
func TestWeightedRequestsKeepUnweightedEntries(t *testing.T) {
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4005))
	d := datagen.ManyComponentChainDB(rng, 8, 3, 9)
	e := New(Config{Portfolio: true, NoClone: true, CompCacheSize: 16})
	if _, _, err := e.Solve(ctx, q, d); err != nil {
		t.Fatal(err)
	}
	base, err := e.InstanceFor(ctx, q, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		wv := make([]int64, base.NumTuples())
		for id := range wv {
			wv[id] = 1 + rng.Int63n(9)
		}
		winst, err := base.WithWeights(wv)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.SolveWeightedInstance(ctx, winst); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats()
	if _, _, err := e.Solve(ctx, q, d); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	comps := int64(len(base.Components()))
	if hits := after.CompCacheHits - before.CompCacheHits; hits != comps || after.SolverRuns != before.SolverRuns {
		t.Fatalf("unweighted re-solve after weighted requests: %d cache hits for %d components, %d solver runs",
			hits, comps, after.SolverRuns-before.SolverRuns)
	}
}
