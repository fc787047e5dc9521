package resilience

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/witset"
)

// Property-based tests (testing/quick) on the solver invariants.

// smallDB is a generated random database for qchain-shaped queries.
type smallDB struct {
	Edges []struct{ U, V uint8 }
}

// Generate implements quick.Generator with a bounded domain so instances
// stay witness-rich and the exact solver fast.
func (smallDB) Generate(r *rand.Rand, size int) reflect.Value {
	n := 2 + r.Intn(8)
	var s smallDB
	for i := 0; i < n; i++ {
		s.Edges = append(s.Edges, struct{ U, V uint8 }{uint8(r.Intn(5)), uint8(r.Intn(5))})
	}
	return reflect.ValueOf(s)
}

func (s smallDB) build() *db.Database {
	d := db.New()
	names := []string{"a", "b", "c", "d", "e"}
	for _, e := range s.Edges {
		d.AddNames("R", names[e.U%5], names[e.V%5])
	}
	return d
}

// TestQuickContingencyIsValidAndMinimal: for random chain instances, the
// exact solver's set falsifies the query and no single tuple can be
// dropped from it (local minimality of a true minimum).
func TestQuickContingencyIsValidAndMinimal(t *testing.T) {
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	prop := func(s smallDB) bool {
		d := s.build()
		res, err := Exact(q, d)
		if err != nil {
			return true
		}
		if res.Rho == 0 {
			return !eval.Satisfied(q, d)
		}
		if VerifyContingency(q, d, res.ContingencySet) != nil {
			return false
		}
		// Minimality: removing any element leaves the query satisfied.
		for skip := range res.ContingencySet {
			mark := d.RestoreMark()
			for i, tup := range res.ContingencySet {
				if i != skip {
					d.Delete(tup)
				}
			}
			still := eval.Satisfied(q, d)
			d.RestoreTo(mark)
			if !still {
				return false // a smaller set would falsify: not minimum
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickMonotoneUnderInsertion: resilience never decreases when tuples
// are added (more witnesses need at least as many deletions... in fact ρ is
// monotone because every witness of D is a witness of D ∪ {t}).
func TestQuickMonotoneUnderInsertion(t *testing.T) {
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	prop := func(s smallDB, extra struct{ U, V uint8 }) bool {
		d := s.build()
		before, err := Exact(q, d)
		if err != nil {
			return true
		}
		names := []string{"a", "b", "c", "d", "e"}
		d.AddNames("R", names[extra.U%5], names[extra.V%5])
		after, err := Exact(q, d)
		if err != nil {
			return true
		}
		return after.Rho >= before.Rho
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeleteContingencyYieldsZero: after deleting a minimum
// contingency set, resilience is 0.
func TestQuickDeleteContingencyYieldsZero(t *testing.T) {
	q := cq.MustParse("qvc :- R(x), S(x,y), R(y)")
	prop := func(s smallDB) bool {
		d := db.New()
		names := []string{"a", "b", "c", "d", "e"}
		for _, e := range s.Edges {
			d.AddNames("S", names[e.U%5], names[e.V%5])
			d.AddNames("R", names[e.U%5])
			d.AddNames("R", names[e.V%5])
		}
		res, err := Exact(q, d)
		if err != nil {
			return true
		}
		for _, tup := range res.ContingencySet {
			d.Delete(tup)
		}
		rest, err := Exact(q, d)
		return err == nil && rest.Rho == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickHittingSetNormalization: the hitting-set normalizer must never
// change the optimum (dedup + superset elimination are safe).
func TestQuickHittingSetNormalization(t *testing.T) {
	prop := func(raw [][]uint8) bool {
		// Build family over elements 0..5, skipping empty sets.
		var fam [][]int32
		for _, s := range raw {
			if len(s) == 0 {
				continue
			}
			row := make([]int32, 0, len(s))
			for _, e := range s[:min(len(s), 4)] {
				row = append(row, int32(e%6))
			}
			fam = append(fam, row)
		}
		if len(fam) == 0 || len(fam) > 8 {
			return true
		}
		hs := newHittingSet(witset.NewFamily(fam, 6, false))
		got, sol := hs.solve(-1)
		want := bruteHitting(fam, 6)
		if got != int64(want) {
			return false
		}
		// The returned solution must actually hit every set.
		chosen := map[int32]bool{}
		for _, e := range sol {
			chosen[e] = true
		}
		for _, s := range fam {
			hit := false
			for _, e := range s {
				if chosen[e] {
					hit = true
					break
				}
			}
			if !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func bruteHitting(fam [][]int32, n int) int {
	best := n + 1
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, s := range fam {
			hit := false
			for _, e := range s {
				if mask>>e&1 == 1 {
					hit = true
					break
				}
			}
			if !hit {
				ok = false
				break
			}
		}
		if ok {
			bits := 0
			for i := 0; i < n; i++ {
				if mask>>i&1 == 1 {
					bits++
				}
			}
			if bits < best {
				best = bits
			}
		}
	}
	return best
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
