package resilience

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/witset"
)

// Weighted differential battery: the min-cost solvers against three
// independent oracles on hundreds of random (query, database, weights)
// instances — the cardinality solvers under uniform weights, a brute-force
// reference recursion under arbitrary weights, and each other (pipeline vs
// monolithic, every ablation variant). A fourth suite pins the algebraic
// invariant that scaling every cost by c scales ρ_w by exactly c.

// referenceWeightedCost recomputes ρ_w by exhaustive branching directly
// over the tuple-level witness sets with incumbent pruning — an
// independent implementation of the min-cost definition that shares no
// code with the witset IR, the bitset solver, or the weighted bounds.
func referenceWeightedCost(q *cq.Query, d *db.Database, wOf func(db.Tuple) int64) (int64, bool) {
	sets, unbreakable := eval.EndoWitnessSets(q, d)
	if unbreakable {
		return 0, true
	}
	chosen := map[db.Tuple]bool{}
	best := int64(math.MaxInt64)
	var search func(cost int64)
	search = func(cost int64) {
		if cost >= best {
			return
		}
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
			best = cost
			return
		}
		for _, t := range unhit {
			if chosen[t] {
				continue
			}
			chosen[t] = true
			search(cost + wOf(t))
			delete(chosen, t)
		}
	}
	search(0)
	return best, false
}

// weightedShapes is the query battery shared by the weighted suites: the
// same hard/easy/exogenous mix as the cardinality differential tests.
var weightedShapes = []struct {
	query          string
	domain, tuples int
}{
	{"qchain :- R(x,y), R(y,z)", 6, 9},
	{"qvc :- R(x), S(x,y), R(y)", 6, 8},
	{"qtriangle :- R(x,y), S(y,z), T(z,x)", 5, 7},
	{"qACconf :- A(x), R(x,y), R(z,y), C(z)", 6, 8},
	{"qperm :- R(x,y), R(y,x)", 7, 10},
	{"qxchain :- A(x)^x, R(x,y), R(y,z)", 6, 9},
}

// buildWeighted attaches a per-tuple weight vector drawn by draw (indexed
// by tuple id) to a freshly built instance.
func buildWeighted(t *testing.T, q *cq.Query, d *db.Database, draw func(id int32) int64) *witset.Instance {
	t.Helper()
	inst, err := witset.Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	wv := make([]int64, inst.NumTuples())
	for id := range wv {
		wv[id] = draw(int32(id))
	}
	winst, err := inst.WithWeights(wv)
	if err != nil {
		t.Fatal(err)
	}
	return winst
}

// costOf sums an instance's weights over a tuple set.
func costOf(inst *witset.Instance, wOf func(db.Tuple) int64, set []db.Tuple) int64 {
	total := int64(0)
	for _, t := range set {
		total += wOf(t)
	}
	return total
}

// TestDifferentialWeightedUniformEqualsCardinality pins the degeneration
// contract: with every cost 1 the weighted solver, enumerator and
// responsibility computation must reproduce the cardinality ones exactly —
// same ρ, same set lists, same k per tuple.
func TestDifferentialWeightedUniformEqualsCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(3001))
	instances := 0
	for round := 0; round < 50; round++ {
		for _, s := range weightedShapes {
			q := cq.MustParse(s.query)
			d := datagen.Random(rng, q, s.domain, s.tuples, 0.3)
			inst := buildWeighted(t, q, d, func(int32) int64 { return 1 })
			base, err := witset.Build(context.Background(), q, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			instances++

			card, cardErr := Exact(q, d)
			scost, sgamma, wErr := solveInstance(context.Background(), inst, -1, Options{})
			if (cardErr == nil) != (wErr == nil) {
				t.Fatalf("%s round %d: cardinality err = %v, weighted err = %v", q.Name, round, cardErr, wErr)
			}
			if cardErr != nil {
				if cardErr == ErrUnbreakable && wErr != ErrUnbreakable {
					t.Fatalf("%s round %d: weighted err = %v, want ErrUnbreakable", q.Name, round, wErr)
				}
				continue
			}
			if scost != int64(card.Rho) {
				t.Fatalf("%s round %d: uniform weighted cost = %d, cardinality ρ = %d",
					q.Name, round, scost, card.Rho)
			}
			if scost > 0 {
				if err := VerifyContingency(q, d, sgamma); err != nil {
					t.Fatalf("%s round %d: weighted contingency invalid: %v", q.Name, round, err)
				}
			}

			// Enumerator parity: identical cost and identical set lists.
			crho, csets, err := EnumerateMinimumOnInstance(context.Background(), base, d, 0)
			if err != nil {
				t.Fatalf("%s round %d: cardinality enumerate: %v", q.Name, round, err)
			}
			wcost, wsets, err := EnumerateMinimumWeightedOnInstance(context.Background(), inst, d, 0)
			if err != nil {
				t.Fatalf("%s round %d: weighted enumerate: %v", q.Name, round, err)
			}
			if wcost != int64(crho) || len(wsets) != len(csets) {
				t.Fatalf("%s round %d: weighted enumerate (cost=%d, %d sets) vs cardinality (ρ=%d, %d sets)",
					q.Name, round, wcost, len(wsets), crho, len(csets))
			}
			for i := range wsets {
				if fmt.Sprint(wsets[i]) != fmt.Sprint(csets[i]) {
					t.Fatalf("%s round %d: enumerate set %d differs:\nweighted:    %v\ncardinality: %v",
						q.Name, round, i, wsets[i], csets[i])
				}
			}

			// Responsibility parity for every endogenous tuple.
			for id := int32(0); id < int32(inst.NumTuples()); id++ {
				tup := inst.Tuple(id)
				ck, _, cErr := ResponsibilityOnInstance(context.Background(), base, d, tup)
				wk, wg, wErr := ResponsibilityOnInstance(context.Background(), inst, d, tup)
				if (cErr == nil) != (wErr == nil) || (cErr != nil && cErr != wErr) {
					t.Fatalf("%s round %d: responsibility(%s) cardinality err = %v, weighted err = %v",
						q.Name, round, d.TupleString(tup), cErr, wErr)
				}
				if cErr != nil {
					continue
				}
				if wk != ck {
					t.Fatalf("%s round %d: responsibility(%s) weighted k = %d, cardinality k = %d",
						q.Name, round, d.TupleString(tup), wk, ck)
				}
				if got := int64(len(wg)); got != wk {
					t.Fatalf("%s round %d: responsibility(%s) uniform gamma cost %d ≠ k %d",
						q.Name, round, d.TupleString(tup), got, wk)
				}
			}
		}
	}
	if instances < 300 {
		t.Fatalf("only %d instances generated, want >= 300", instances)
	}
}

// TestDifferentialWeightedPipelineVsMonolithic pins the weighted tentpole
// contract under arbitrary weights: pipeline, monolithic, every bound
// ablation, and the weighted enumerator all agree with the brute-force
// reference on ρ_w, and every reported contingency set has exactly that
// cost and verifiably falsifies the query.
func TestDifferentialWeightedPipelineVsMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(3002))
	instances := 0
	for round := 0; round < 50; round++ {
		for _, s := range weightedShapes {
			q := cq.MustParse(s.query)
			d := datagen.Random(rng, q, s.domain, s.tuples, 0.3)
			inst := buildWeighted(t, q, d, func(int32) int64 { return 1 + rng.Int63n(6) })
			instances++

			wOf := func(tup db.Tuple) int64 {
				for id := int32(0); id < int32(inst.NumTuples()); id++ {
					if inst.Tuple(id) == tup {
						return inst.Weight(id)
					}
				}
				return 1 // outside the witness universe: never chosen
			}
			want, unbreakable := referenceWeightedCost(q, d, wOf)

			pipe, pipeGamma, pipeErr := solveInstance(context.Background(), inst, -1, Options{})
			if unbreakable {
				if pipeErr != ErrUnbreakable {
					t.Fatalf("%s round %d: reference says unbreakable, weighted err = %v", q.Name, round, pipeErr)
				}
				continue
			}
			if pipeErr != nil {
				t.Fatalf("%s round %d: weighted pipeline: %v", q.Name, round, pipeErr)
			}
			if pipe != want {
				t.Fatalf("%s round %d: weighted pipeline cost = %d, reference = %d\n%s",
					q.Name, round, pipe, want, d)
			}
			if pipe > 0 {
				if got := costOf(inst, wOf, pipeGamma); got != pipe {
					t.Fatalf("%s round %d: contingency cost %d ≠ reported %d", q.Name, round, got, pipe)
				}
				if err := VerifyContingency(q, d, pipeGamma); err != nil {
					t.Fatalf("%s round %d: weighted contingency invalid: %v", q.Name, round, err)
				}
			}

			// Monolithic oracle plus the full weighted ablation matrix.
			for _, opts := range []Options{
				{Monolithic: true},
				{DisableLowerBound: true},
				{DisableLPBound: true},
				{DisableLowerBound: true, DisableLPBound: true},
				{KeepSupersets: true},
				{Monolithic: true, DisableLowerBound: true, DisableLPBound: true},
			} {
				ab, _, err := solveInstance(context.Background(), inst, -1, opts)
				if err != nil {
					t.Fatalf("%s round %d: weighted ablation %+v: %v", q.Name, round, opts, err)
				}
				if ab != want {
					t.Fatalf("%s round %d: weighted ablation %+v cost = %d, want %d",
						q.Name, round, opts, ab, want)
				}
			}

			// Weighted enumerator: pipeline vs monolithic, identical lists,
			// every set optimal and verified.
			ecost, esets, err := EnumerateMinimumWeightedOnInstance(context.Background(), inst, d, 0)
			if err != nil {
				t.Fatalf("%s round %d: weighted enumerate: %v", q.Name, round, err)
			}
			mcost, msets, err := enumerateMinimumMonolithic(context.Background(), inst, d, 0)
			if err != nil {
				t.Fatalf("%s round %d: weighted monolithic enumerate: %v", q.Name, round, err)
			}
			if ecost != want || mcost != want || len(esets) != len(msets) {
				t.Fatalf("%s round %d: weighted enumerate pipeline (cost=%d, %d sets) vs monolithic (cost=%d, %d sets), reference %d",
					q.Name, round, ecost, len(esets), mcost, len(msets), want)
			}
			for i := range esets {
				if fmt.Sprint(esets[i]) != fmt.Sprint(msets[i]) {
					t.Fatalf("%s round %d: weighted enumerate set %d differs:\npipeline:   %v\nmonolithic: %v",
						q.Name, round, i, esets[i], msets[i])
				}
				if got := costOf(inst, wOf, esets[i]); got != want {
					t.Fatalf("%s round %d: enumerated set %d costs %d, want %d", q.Name, round, i, got, want)
				}
				if err := VerifyContingency(q, d, esets[i]); err != nil {
					t.Fatalf("%s round %d: enumerated set %d invalid: %v", q.Name, round, i, err)
				}
			}
		}
	}
	if instances < 300 {
		t.Fatalf("only %d instances generated, want >= 300", instances)
	}
}

// TestDifferentialWeightedResponsibilityVsReference pins weighted
// responsibility against a reference built from the same brute-force
// recursion: for tuple t, the min-cost contingency Γ with t ∉ Γ such that
// D−Γ |= q but D−Γ−{t} ̸|= q — computed here by restricting the witness
// sets by hand, with no shared solver code.
func TestDifferentialWeightedResponsibilityVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3003))
	instances := 0
	for round := 0; round < 50; round++ {
		for _, s := range weightedShapes {
			q := cq.MustParse(s.query)
			d := datagen.Random(rng, q, s.domain, s.tuples, 0.3)
			inst := buildWeighted(t, q, d, func(int32) int64 { return 1 + rng.Int63n(5) })
			instances++
			if inst.Unbreakable() || inst.NumWitnesses() == 0 {
				continue
			}
			wOf := func(tup db.Tuple) int64 {
				for id := int32(0); id < int32(inst.NumTuples()); id++ {
					if inst.Tuple(id) == tup {
						return inst.Weight(id)
					}
				}
				return 1
			}
			sets, _ := eval.EndoWitnessSets(q, d)
			for id := int32(0); id < int32(inst.NumTuples()); id++ {
				tup := inst.Tuple(id)
				want := referenceWeightedResponsibility(sets, tup, wOf)
				got, gamma, err := ResponsibilityOnInstance(context.Background(), inst, d, tup)
				if want < 0 {
					if err != ErrNotCounterfactual {
						t.Fatalf("%s round %d: responsibility(%s): err = %v, want ErrNotCounterfactual",
							q.Name, round, d.TupleString(tup), err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s round %d: responsibility(%s): %v", q.Name, round, d.TupleString(tup), err)
				}
				if got != want {
					t.Fatalf("%s round %d: responsibility(%s) = %d, reference = %d\n%s",
						q.Name, round, d.TupleString(tup), got, want, d)
				}
				if gcost := costOf(inst, wOf, gamma); gcost != got {
					t.Fatalf("%s round %d: responsibility(%s) gamma costs %d, k = %d",
						q.Name, round, d.TupleString(tup), gcost, got)
				}
			}
		}
	}
	if instances < 300 {
		t.Fatalf("only %d instances generated, want >= 300", instances)
	}
}

// referenceWeightedResponsibility brute-forces min-cost responsibility
// over the raw witness sets: Γ must hit every witness set not containing
// t while leaving at least one witness alive whose only missing tuple is
// t. Returns -1 when t is not a counterfactual cause under any Γ.
func referenceWeightedResponsibility(sets [][]db.Tuple, t db.Tuple, wOf func(db.Tuple) int64) int64 {
	// Witnesses containing t survive Γ only if Γ misses them entirely;
	// witnesses without t must all be hit. Enumerate subsets of the tuple
	// universe minus t by recursion over the must-hit sets, then check
	// some t-witness survived.
	var withT, withoutT [][]db.Tuple
	for _, s := range sets {
		has := false
		for _, x := range s {
			if x == t {
				has = true
				break
			}
		}
		if has {
			withT = append(withT, s)
		} else {
			withoutT = append(withoutT, s)
		}
	}
	if len(withT) == 0 {
		return -1
	}
	best := int64(-1)
	chosen := map[db.Tuple]bool{}
	var search func(cost int64)
	search = func(cost int64) {
		if best >= 0 && cost >= best {
			return
		}
		var unhit []db.Tuple
		for _, s := range withoutT {
			hit := false
			for _, x := range s {
				if chosen[x] {
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
			// All t-free witnesses are dead; some t-witness must survive Γ.
			for _, s := range withT {
				alive := true
				for _, x := range s {
					if chosen[x] {
						alive = false
						break
					}
				}
				if alive {
					best = cost
					return
				}
			}
			return
		}
		for _, x := range unhit {
			if x == t || chosen[x] {
				continue
			}
			chosen[x] = true
			search(cost + wOf(x))
			delete(chosen, x)
		}
	}
	search(0)
	return best
}

// TestDifferentialWeightedScalingInvariance pins the algebraic contract
// that makes weights a true cost model: multiplying every cost by c
// multiplies ρ_w by exactly c, and an optimal set under w stays optimal
// under c·w.
func TestDifferentialWeightedScalingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3004))
	instances := 0
	for round := 0; round < 50; round++ {
		for _, s := range weightedShapes {
			q := cq.MustParse(s.query)
			d := datagen.Random(rng, q, s.domain, s.tuples, 0.3)
			base, err := witset.Build(context.Background(), q, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			instances++
			wv := make([]int64, base.NumTuples())
			for i := range wv {
				wv[i] = 1 + rng.Int63n(4)
			}
			inst, err := base.WithWeights(wv)
			if err != nil {
				t.Fatal(err)
			}
			res, _, resErr := solveInstance(context.Background(), inst, -1, Options{})
			for _, c := range []int64{2, 5} {
				sv := make([]int64, len(wv))
				for i := range sv {
					sv[i] = c * wv[i]
				}
				sinst, err := base.WithWeights(sv)
				if err != nil {
					t.Fatal(err)
				}
				sres, _, sErr := solveInstance(context.Background(), sinst, -1, Options{})
				if (resErr == nil) != (sErr == nil) {
					t.Fatalf("%s round %d: scale %d err = %v, base err = %v", q.Name, round, c, sErr, resErr)
				}
				if resErr != nil {
					continue
				}
				if sres != c*res {
					t.Fatalf("%s round %d: scale %d cost = %d, want %d·%d = %d",
						q.Name, round, c, sres, c, res, c*res)
				}
			}
		}
	}
	if instances < 300 {
		t.Fatalf("only %d instances generated, want >= 300", instances)
	}
}
