package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cnfenc"
	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/witset"
)

// Randomized differential suite: on a battery of random (query, database)
// instances, the legacy-equivalent reference solver (plain recursion over
// eval.EndoWitnessSets, no interning, no bitsets), the IR-based exact
// solver (both ablation variants), the SAT oracle, and the minimum-set
// enumerator must all agree on ρ.

// referenceRho recomputes ρ by iterative deepening directly over the
// tuple-level witness sets — an independent implementation of Definition 1
// that shares no code with the witset IR or the bitset hitting-set core.
func referenceRho(q *cq.Query, d *db.Database) (rho int, unbreakable bool) {
	sets, unbreakable := eval.EndoWitnessSets(q, d)
	if unbreakable {
		return 0, true
	}
	chosen := map[db.Tuple]bool{}
	var canHit func(k int) bool
	canHit = func(k int) bool {
		var unhit []db.Tuple
		for _, s := range sets {
			hit := false
			for _, t := range s {
				if chosen[t] {
					hit = true
					break
				}
			}
			if !hit {
				unhit = s
				break
			}
		}
		if unhit == nil {
			return true
		}
		if k == 0 {
			return false
		}
		for _, t := range unhit {
			chosen[t] = true
			ok := canHit(k - 1)
			delete(chosen, t)
			if ok {
				return true
			}
		}
		return false
	}
	for k := 0; ; k++ {
		if canHit(k) {
			return k, false
		}
	}
}

func TestDifferentialRandomInstances(t *testing.T) {
	shapes := []struct {
		query          string
		domain, tuples int
	}{
		{"qchain :- R(x,y), R(y,z)", 6, 10},
		{"qvc :- R(x), S(x,y), R(y)", 6, 9},
		{"qtriangle :- R(x,y), S(y,z), T(z,x)", 5, 8},
		{"qACconf :- A(x), R(x,y), R(z,y), C(z)", 6, 9},
		{"qperm :- R(x,y), R(y,x)", 7, 12},
		{"qxchain :- A(x)^x, R(x,y), R(y,z)", 6, 10},
	}
	rng := rand.New(rand.NewSource(2026))
	instances := 0
	for round := 0; round < 6; round++ {
		for _, s := range shapes {
			q := cq.MustParse(s.query)
			d := datagen.Random(rng, q, s.domain, s.tuples, 0.3)
			instances++

			want, unbreakable := referenceRho(q, d)

			got, err := Exact(q, d)
			if unbreakable {
				if err != ErrUnbreakable {
					t.Fatalf("%s round %d: reference says unbreakable, Exact err = %v", q.Name, round, err)
				}
				if _, _, satErr := cnfenc.Decide(q, d, 0); satErr != cnfenc.ErrUnbreakable {
					t.Fatalf("%s round %d: reference says unbreakable, SAT err = %v", q.Name, round, satErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s round %d: Exact failed: %v", q.Name, round, err)
			}
			if got.Rho != want {
				t.Fatalf("%s round %d: IR Exact ρ = %d, reference ρ = %d\n%s", q.Name, round, got.Rho, want, d)
			}
			if len(got.ContingencySet) > 0 {
				if err := VerifyContingency(q, d, got.ContingencySet); err != nil {
					t.Fatalf("%s round %d: bad contingency set: %v", q.Name, round, err)
				}
			}

			// Ablation variants search differently but answer identically.
			for _, opts := range []Options{
				{DisableLowerBound: true},
				{DisableLPBound: true},
				{DisableLowerBound: true, DisableLPBound: true},
				{KeepSupersets: true},
				{DisableLowerBound: true, KeepSupersets: true},
				{DisableLPBound: true, KeepSupersets: true},
			} {
				ab, err := ExactWithOptions(q, d, opts)
				if err != nil {
					t.Fatalf("%s round %d: ablation %+v failed: %v", q.Name, round, opts, err)
				}
				if ab.Rho != want {
					t.Fatalf("%s round %d: ablation %+v ρ = %d, want %d", q.Name, round, opts, ab.Rho, want)
				}
			}

			// SAT oracle: (D, ρ) ∈ RES(q) and (D, ρ−1) ∉ RES(q).
			if ok, _, err := cnfenc.Decide(q, d, want); err != nil || ok != eval.Satisfied(q, d) {
				t.Fatalf("%s round %d: SAT Decide(ρ=%d) = (%v, %v)", q.Name, round, want, ok, err)
			}
			if want > 0 {
				if ok, _, err := cnfenc.Decide(q, d, want-1); err != nil || ok {
					t.Fatalf("%s round %d: SAT Decide(ρ-1=%d) = (%v, %v), want unsat", q.Name, round, want-1, ok, err)
				}
			}

			// The enumerator's ρ must match, and every set it returns must
			// be a verified optimum.
			erho, esets, err := EnumerateMinimum(q, d, 8)
			if err != nil {
				t.Fatalf("%s round %d: EnumerateMinimum failed: %v", q.Name, round, err)
			}
			if erho != want {
				t.Fatalf("%s round %d: EnumerateMinimum ρ = %d, want %d", q.Name, round, erho, want)
			}
			for _, set := range esets {
				if len(set) != want {
					t.Fatalf("%s round %d: enumerated set size %d, want %d", q.Name, round, len(set), want)
				}
				if err := VerifyContingency(q, d, set); err != nil {
					t.Fatalf("%s round %d: enumerated set invalid: %v", q.Name, round, err)
				}
			}
		}
	}
	if instances == 0 {
		t.Fatal("no instances generated")
	}
}

func TestDifferentialUnbreakableEdge(t *testing.T) {
	// Every atom exogenous: any witness is unbreakable.
	q := cq.MustParse("q :- R(x,y)^x")
	d := db.New()
	d.AddNames("R", "a", "b")
	if _, err := Exact(q, d); err != ErrUnbreakable {
		t.Fatalf("Exact err = %v, want ErrUnbreakable", err)
	}
	if _, unbreakable := referenceRho(q, d); !unbreakable {
		t.Fatal("reference disagrees on unbreakability")
	}
}

// TestDifferentialPipelineVsMonolithic pins the tentpole contract: the
// kernel+decompose pipeline computes exactly what the monolithic solver
// computes — for ρ, for the full set of minimum contingency sets, and for
// responsibility — on generated instances that include forced tuples (unit
// witnesses from loops) and many-component witness hypergraphs.
func TestDifferentialPipelineVsMonolithic(t *testing.T) {
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")

	// Each generator owns its own seeded rng and the slice fixes the
	// iteration order, so a failing instance is reproducible: map
	// iteration order must not decide which databases get generated.
	type gen func(rng *rand.Rand, round int) *db.Database
	gens := []struct {
		name string
		g    gen
	}{
		// Disjoint heavy-tailed clusters: many components.
		{"manycomp", func(rng *rand.Rand, round int) *db.Database {
			return datagen.ManyComponentChainDB(rng, 4+round, 3, 10)
		}},
		// Clusters plus loops R(a,a): the witness x=y=z=a is the single
		// tuple {R(a,a)}, a unit row the kernel must force.
		{"forced", func(rng *rand.Rand, round int) *db.Database {
			d := datagen.ManyComponentChainDB(rng, 3+round, 3, 8)
			for i := 0; i < 2+round; i++ {
				a := datagen.ConstName(1000 + i) // fresh constants: isolated loop components
				d.AddNames("R", a, a)
			}
			return d
		}},
		// Dense single-pool instances: typically one big component, the
		// pipeline's no-win case must still be exact.
		{"dense", func(rng *rand.Rand, round int) *db.Database {
			return datagen.ChainDB(rng, 14, 12)
		}},
	}

	for gi, entry := range gens {
		name, g := entry.name, entry.g
		rng := rand.New(rand.NewSource(2027 + int64(gi)))
		for round := 0; round < 4; round++ {
			d := g(rng, round)
			inst, err := witset.Build(context.Background(), q, d, nil)
			if err != nil {
				t.Fatal(err)
			}

			mono, monoErr := ExactWithOptions(q, d, Options{Monolithic: true})
			pipe, pipeErr := Exact(q, d)
			if (monoErr == nil) != (pipeErr == nil) {
				t.Fatalf("%s round %d: pipeline err = %v, monolithic err = %v", name, round, pipeErr, monoErr)
			}
			if monoErr != nil {
				continue
			}
			if pipe.Rho != mono.Rho {
				t.Fatalf("%s round %d: pipeline ρ = %d, monolithic ρ = %d", name, round, pipe.Rho, mono.Rho)
			}
			if want, _ := referenceRho(q, d); want != pipe.Rho {
				t.Fatalf("%s round %d: pipeline ρ = %d, reference ρ = %d", name, round, pipe.Rho, want)
			}
			// LP-bound ablation: with the dual-greedy bound off — in both
			// the pipeline and the monolithic search — the optimum must not
			// move, pinning the bound as prune-only.
			for _, opts := range []Options{
				{DisableLPBound: true},
				{DisableLPBound: true, Monolithic: true},
			} {
				ab, err := ExactWithOptions(q, d, opts)
				if err != nil {
					t.Fatalf("%s round %d: ablation %+v: %v", name, round, opts, err)
				}
				if ab.Rho != pipe.Rho {
					t.Fatalf("%s round %d: ablation %+v ρ = %d, want %d", name, round, opts, ab.Rho, pipe.Rho)
				}
			}
			if pipe.Rho > 0 {
				if err := VerifyContingency(q, d, pipe.ContingencySet); err != nil {
					t.Fatalf("%s round %d: pipeline contingency invalid: %v", name, round, err)
				}
				if len(pipe.ContingencySet) != pipe.Rho {
					t.Fatalf("%s round %d: pipeline contingency size %d ≠ ρ %d",
						name, round, len(pipe.ContingencySet), pipe.Rho)
				}
			}

			// Kernel sanity on the forced generator: loops must be forced.
			if name == "forced" {
				if k := inst.Kernel(); len(k.Forced) == 0 {
					t.Fatalf("%s round %d: no forced tuples despite unit witnesses", name, round)
				}
			}
			if name == "manycomp" && len(inst.Components()) < 2 {
				t.Fatalf("%s round %d: expected a multi-component hypergraph", name, round)
			}

			// Enumerator parity: the full (uncapped) sets must be identical.
			erho, esets, err := EnumerateMinimumOnInstance(context.Background(), inst, d, 0)
			if err != nil {
				t.Fatalf("%s round %d: pipeline enumerate: %v", name, round, err)
			}
			mrho, msets, err := enumerateMinimumMonolithic(context.Background(), inst, d, 0)
			if err != nil {
				t.Fatalf("%s round %d: monolithic enumerate: %v", name, round, err)
			}
			if int64(erho) != mrho || len(esets) != len(msets) {
				t.Fatalf("%s round %d: enumerate pipeline (ρ=%d, %d sets) vs monolithic (ρ=%d, %d sets)",
					name, round, erho, len(esets), mrho, len(msets))
			}
			for i := range esets {
				if fmt.Sprint(esets[i]) != fmt.Sprint(msets[i]) {
					t.Fatalf("%s round %d: enumerate set %d differs:\npipeline:   %v\nmonolithic: %v",
						name, round, i, esets[i], msets[i])
				}
			}

			// Responsibility parity for every endogenous tuple in the IR.
			for id := int32(0); id < int32(inst.NumTuples()); id++ {
				tup := inst.Tuple(id)
				pk, pg, perr := ResponsibilityOnInstance(context.Background(), inst, d, tup)
				mk, _, merr := responsibilityMonolithic(context.Background(), inst, d, tup)
				if (perr == nil) != (merr == nil) || (perr != nil && perr != merr) {
					t.Fatalf("%s round %d: responsibility(%s) pipeline err = %v, monolithic err = %v",
						name, round, d.TupleString(tup), perr, merr)
				}
				if perr != nil {
					continue
				}
				if pk != mk {
					t.Fatalf("%s round %d: responsibility(%s) pipeline k = %d, monolithic k = %d",
						name, round, d.TupleString(tup), pk, mk)
				}
				if int64(len(pg)) != pk {
					t.Fatalf("%s round %d: responsibility(%s) gamma size %d ≠ k %d",
						name, round, d.TupleString(tup), len(pg), pk)
				}
			}
		}
	}
}

// TestDecideAndVerifyViaIR pins the IR-routed Decide/VerifyContingency
// against the reference recursion: membership thresholds at exactly ρ, and
// verification accepts optima and rejects non-hitting sets, without ever
// mutating the database.
func TestDecideAndVerifyViaIR(t *testing.T) {
	rng := rand.New(rand.NewSource(2028))
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	for round := 0; round < 6; round++ {
		d := datagen.ManyComponentChainDB(rng, 2+round, 3, 9)
		version := d.Version()
		want, unbreakable := referenceRho(q, d)
		if unbreakable {
			continue
		}
		satisfied := want > 0 || eval.Satisfied(q, d)
		for _, k := range []int{0, want - 1, want, want + 1} {
			if k < 0 {
				continue
			}
			got, err := Decide(q, d, k)
			if err != nil {
				t.Fatalf("round %d: Decide(%d): %v", round, k, err)
			}
			if wantIn := satisfied && want <= k; got != wantIn {
				t.Fatalf("round %d: Decide(%d) = %v, want %v (ρ = %d)", round, k, got, wantIn, want)
			}
		}
		if want > 0 {
			res, err := Exact(q, d)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyContingency(q, d, res.ContingencySet); err != nil {
				t.Fatalf("round %d: optimal set rejected: %v", round, err)
			}
			if err := VerifyContingency(q, d, res.ContingencySet[:len(res.ContingencySet)-1]); err == nil && want > 0 {
				// Removing one tuple from a minimum set cannot still falsify.
				t.Fatalf("round %d: sub-optimal subset accepted", round)
			}
		}
		if d.Version() != version {
			t.Fatalf("round %d: Decide/Verify mutated the database (version %d → %d)",
				round, version, d.Version())
		}
	}
}
