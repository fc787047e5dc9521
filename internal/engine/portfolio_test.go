package engine

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/resilience"
	"repro/internal/witset"
)

// TestPortfolioBuildsIROnce pins the enumerate-once contract: one portfolio
// race performs exactly one witness-hypergraph construction, shared by both
// racers (the old implementation enumerated witnesses twice, once per racer,
// on a defensively cloned database).
func TestPortfolioBuildsIROnce(t *testing.T) {
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	rng := rand.New(rand.NewSource(21))
	d := datagen.Random(rng, q, 8, 18, 0.2)

	e := New(Config{Workers: 2, Portfolio: true})
	res, cl, err := e.Solve(context.Background(), q, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho == 0 {
		t.Fatal("instance not satisfied; pick a seed that actually races")
	}
	if len(cl.Components) > 1 {
		t.Fatalf("expected a single-component query, got %d components", len(cl.Components))
	}
	st := e.Stats()
	if st.IRBuilds != 1 {
		t.Fatalf("Stats.IRBuilds = %d, want exactly 1 per portfolio race", st.IRBuilds)
	}
	if st.ComponentsSolved < 1 {
		t.Fatalf("Stats.ComponentsSolved = %d, want at least 1", st.ComponentsSolved)
	}
	if st.SolverRuns != 2*st.ComponentsSolved {
		t.Fatalf("Stats.SolverRuns = %d, want 2 per raced component (%d components)",
			st.SolverRuns, st.ComponentsSolved)
	}
	if st.PortfolioExactWins+st.PortfolioSATWins != st.ComponentsSolved {
		t.Fatalf("portfolio wins = %d exact + %d sat, want one per raced component (%d)",
			st.PortfolioExactWins, st.PortfolioSATWins, st.ComponentsSolved)
	}

	// More races on the same engine keep the invariant: IR builds count
	// races, solver runs count 2 per raced component.
	const extra = 5
	for i := 0; i < extra; i++ {
		d2 := datagen.Random(rng, q, 8, 18, 0.2)
		if _, _, err := e.Solve(context.Background(), q, d2); err != nil && err != resilience.ErrUnbreakable {
			t.Fatal(err)
		}
	}
	st = e.Stats()
	if st.IRBuilds != 1+extra {
		t.Fatalf("Stats.IRBuilds = %d after %d races, want %d", st.IRBuilds, 1+extra, 1+extra)
	}
	if st.SolverRuns != 2*st.ComponentsSolved {
		t.Fatalf("Stats.SolverRuns = %d, want 2×ComponentsSolved = %d: a racer re-enumerated",
			st.SolverRuns, 2*st.ComponentsSolved)
	}
}

// TestPortfolioSharedIRConcurrent hammers the shared-IR race path across a
// concurrent batch; under `go test -race` (the CI default) this is the
// regression guard for the IR's concurrent readers — both racers of every
// instance consume one witset.Instance, including its lazily derived
// families, with no database clone separating them.
func TestPortfolioSharedIRConcurrent(t *testing.T) {
	q := cq.MustParse("qvc :- R(x), S(x,y), R(y)")
	rng := rand.New(rand.NewSource(33))
	insts := make([]Instance, 24)
	for i := range insts {
		insts[i] = Instance{Query: q, DB: datagen.Random(rng, q, 7, 12, 0.2)}
	}
	e := New(Config{Workers: 8, Portfolio: true})
	results := e.SolveBatch(context.Background(), insts)
	for i, r := range results {
		if r.Err != nil && r.Err != resilience.ErrUnbreakable {
			t.Fatalf("instance %d failed: %v", i, r.Err)
		}
		if r.Err == nil {
			want, err := resilience.Exact(insts[i].Query, insts[i].DB)
			if err != nil {
				t.Fatalf("instance %d: exact failed: %v", i, err)
			}
			if r.Res.Rho != want.Rho {
				t.Fatalf("instance %d: portfolio ρ = %d, exact ρ = %d", i, r.Res.Rho, want.Rho)
			}
		}
	}
	st := e.Stats()
	if st.SolverRuns != 2*st.ComponentsSolved {
		t.Fatalf("SolverRuns = %d, want 2×ComponentsSolved = %d", st.SolverRuns, 2*st.ComponentsSolved)
	}
}

// TestSATFamilySearchMatchesExact pins the assumption-driven SAT binary
// search — one persistent clause database per component, budgets selected
// purely by assumptions — against the exact branch-and-bound on random
// component families. This is the racer-level differential for the
// incremental-solver rebase: if learned clauses ever leaked across budgets
// unsoundly, the searches would disagree here before any portfolio race
// noticed.
func TestSATFamilySearchMatchesExact(t *testing.T) {
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	rng := rand.New(rand.NewSource(91))
	ctx := context.Background()
	checked := 0
	for round := 0; round < 12; round++ {
		d := datagen.ChainDB(rng, 8+round, 6)
		inst, err := witset.Build(ctx, q, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range inst.Components() {
			wantSize, _, err := resilience.SolveFamily(ctx, c.Fam, -1)
			if err != nil {
				t.Fatal(err)
			}
			gotSize, ids, err := satFamilySearch(ctx, c.Fam)
			if err != nil {
				t.Fatal(err)
			}
			if gotSize != wantSize {
				t.Fatalf("round %d: satFamilySearch = %d, exact = %d (N=%d rows=%d)",
					round, gotSize, wantSize, c.Fam.N, len(c.Fam.Rows))
			}
			if int64(len(ids)) != gotSize {
				t.Fatalf("round %d: satFamilySearch returned %d ids for size %d", round, len(ids), gotSize)
			}
			hit := make([]bool, c.Fam.N)
			for _, e := range ids {
				hit[e] = true
			}
			for _, row := range c.Fam.Rows {
				rowHit := false
				for _, e := range row {
					if hit[e] {
						rowHit = true
						break
					}
				}
				if !rowHit {
					t.Fatalf("round %d: satFamilySearch set misses row %v", round, row)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no component actually checked")
	}
}

// TestPortfolioManyComponents pins the component-parallel pipeline: on
// many-component heavy-tailed hypergraphs the portfolio must agree with the
// monolithic exact solver, race each component (2 solver runs per
// component), and record the kernel/component counters the serving layer
// surfaces.
func TestPortfolioManyComponents(t *testing.T) {
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	rng := rand.New(rand.NewSource(57))
	e := New(Config{Workers: 2, Portfolio: true, ComponentWorkers: 3})
	solved := 0
	for round := 0; round < 5; round++ {
		d := datagen.ManyComponentChainDB(rng, 4+round, 3, 12)
		res, _, err := e.Solve(context.Background(), q, d)
		if err == resilience.ErrUnbreakable {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := resilience.ExactWithOptions(q, d, resilience.Options{Monolithic: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rho != want.Rho {
			t.Fatalf("round %d: portfolio ρ = %d (method %s), monolithic ρ = %d",
				round, res.Rho, res.Method, want.Rho)
		}
		if res.Rho > 0 {
			if err := resilience.VerifyContingency(q, d, res.ContingencySet); err != nil {
				t.Fatalf("round %d: portfolio contingency invalid: %v", round, err)
			}
		}
		solved++
	}
	if solved == 0 {
		t.Fatal("no instance actually solved")
	}
	st := e.Stats()
	if st.MultiComponentInstances == 0 {
		t.Error("Stats.MultiComponentInstances = 0, want > 0 on disjoint-cluster databases")
	}
	if st.ComponentsSolved < st.MultiComponentInstances*2 {
		t.Errorf("Stats.ComponentsSolved = %d inconsistent with %d multi-component instances",
			st.ComponentsSolved, st.MultiComponentInstances)
	}
	if st.SolverRuns != 2*st.ComponentsSolved {
		t.Errorf("Stats.SolverRuns = %d, want 2 per raced component (%d)", st.SolverRuns, st.ComponentsSolved)
	}
}

// TestPortfolioRaceDeclinesOversizedCounter pins the SAT racer's register
// budget. qchain over a directed ring of n facts has one kernel-resistant
// component, a cycle of n two-tuple witnesses with ρ = n/2, which the exact
// side settles at the root (greedy meets the LP bound). A counter sized to
// the greedy cover would hold n·n/2 registers, and its construction cannot
// be cancelled, so the race would last, and allocate, until it was built:
// about 80 MB at n = 512. Over cnfenc.MaxRegisters the SAT side declines
// instead, and the race costs what the exact side costs.
func TestPortfolioRaceDeclinesOversizedCounter(t *testing.T) {
	const n = 512
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	d := db.New()
	for i := 0; i < n; i++ {
		d.AddNames("R", datagen.ConstName(i), datagen.ConstName((i+1)%n))
	}
	e := New(Config{Portfolio: true, NoClone: true})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _, err := e.Solve(context.Background(), q, d)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != n/2 || res.Method != "portfolio/exact" {
		t.Fatalf("ρ = %d by %q, want %d by portfolio/exact", res.Rho, res.Method, n/2)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Fatalf("raced solve allocated %.1f MB, want < 16 MB: the SAT side built its counter",
			float64(alloc)/(1<<20))
	}
	if st := e.Stats(); st.SolverRuns != 2*st.ComponentsSolved {
		t.Fatalf("Stats.SolverRuns = %d, want 2×ComponentsSolved = %d after a decline",
			st.SolverRuns, 2*st.ComponentsSolved)
	}
}
