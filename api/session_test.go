package api

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/resilience"
)

func toyFacts() []string { return []string{"R(1,2)", "R(2,3)", "R(3,3)"} }

func newToySession(t *testing.T) *Session {
	t.Helper()
	s := NewSession(Config{})
	if _, err := s.RegisterFacts("toy", toyFacts()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionAllKinds drives every task kind through the wire-typed Do
// path on the README example (ρ(qchain, toy) = 2).
func TestSessionAllKinds(t *testing.T) {
	s := newToySession(t)
	ctx := context.Background()
	const chain = "qchain :- R(x,y), R(y,z)"

	cl, err := s.Do(ctx, Task{Kind: KindClassify, Query: chain})
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if cl.Verdict != "NP-complete" || cl.Rule == "" {
		t.Fatalf("classify = %+v, want NP-complete with a rule", cl)
	}

	solve, err := s.Do(ctx, Task{Kind: KindSolve, Query: chain, DB: "toy"})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if solve.Rho != 2 || len(solve.Contingency) != 2 || solve.Witnesses == 0 {
		t.Fatalf("solve = %+v, want ρ=2 with a 2-tuple contingency", solve)
	}

	enum, err := s.Do(ctx, Task{Kind: KindEnumerate, Query: chain, DB: "toy"})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if enum.Rho != 2 || len(enum.Sets) == 0 || enum.Total != len(enum.Sets) {
		t.Fatalf("enumerate = %+v, want ρ=2 with sets", enum)
	}

	resp, err := s.Do(ctx, Task{Kind: KindResponsibility, Query: chain, DB: "toy", Tuple: "R(2,3)"})
	if err != nil {
		t.Fatalf("responsibility: %v", err)
	}
	if resp.NotCounterfactual || resp.Responsibility <= 0 || resp.Tuple != "R(2,3)" {
		t.Fatalf("responsibility = %+v, want a positive score for R(2,3)", resp)
	}

	for k, want := range map[int]bool{1: false, 2: true, 3: true} {
		dec, err := s.Do(ctx, Task{Kind: KindDecide, Query: chain, DB: "toy", K: k})
		if err != nil {
			t.Fatalf("decide k=%d: %v", k, err)
		}
		if dec.Holds != want {
			t.Fatalf("decide k=%d = %v, want %v", k, dec.Holds, want)
		}
	}

	ver, err := s.Do(ctx, Task{Kind: KindVerifyContingency, Query: chain, DB: "toy",
		Gamma: []string{"R(1,2)", "R(3,3)"}})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !ver.Valid {
		t.Fatalf("verify {R(1,2), R(3,3)} = %+v, want valid", ver)
	}
	bad, err := s.Do(ctx, Task{Kind: KindVerifyContingency, Query: chain, DB: "toy",
		Gamma: []string{"R(1,2)"}})
	if err != nil {
		t.Fatalf("verify bad: %v", err)
	}
	if bad.Valid || bad.Reason == "" {
		t.Fatalf("verify {R(1,2)} = %+v, want invalid with reason", bad)
	}
	// A gamma tuple absent from the database is a definite invalid answer,
	// not an error.
	ghost, err := s.Do(ctx, Task{Kind: KindVerifyContingency, Query: chain, DB: "toy",
		Gamma: []string{"R(9,9)"}})
	if err != nil {
		t.Fatalf("verify ghost: %v", err)
	}
	if ghost.Valid || ghost.Reason == "" {
		t.Fatalf("verify ghost tuple = %+v, want invalid with reason", ghost)
	}
}

// TestSessionTypedErrors pins the error codes of the resolution path.
func TestSessionTypedErrors(t *testing.T) {
	s := newToySession(t)
	ctx := context.Background()
	cases := []struct {
		task Task
		want error
	}{
		{Task{Kind: "nope", Query: "q :- R(x,y)", DB: "toy"}, ErrBadRequest},
		{Task{Kind: KindSolve, Query: "not a query", DB: "toy"}, ErrBadQuery},
		{Task{Kind: KindSolve, Query: "q :- R(x,y)", DB: "ghost"}, ErrUnknownDB},
		{Task{Kind: KindResponsibility, Query: "q :- R(x,y)", DB: "toy", Tuple: "R(("}, ErrBadTuple},
		{Task{Kind: KindResponsibility, Query: "q :- R(x,y)", DB: "toy", Tuple: "R(9,9)"}, ErrBadTuple},
	}
	for i, c := range cases {
		_, err := s.Do(ctx, c.task)
		if !errors.Is(err, c.want) {
			t.Errorf("case %d: err = %v, want %v", i, err, c.want)
		}
	}

	// A microscopic deadline surfaces as ErrTimeout, never as an internal
	// error: the cancellation-audit satellite.
	rng := rand.New(rand.NewSource(7))
	if _, err := s.RegisterFacts("big", renderAll(t, rng)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Do(ctx, Task{Kind: KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "big", TimeoutMS: 1})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("tiny budget: err = %v, want ErrTimeout", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	_, err = s.Do(cctx, Task{Kind: KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "big"})
	if !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrTimeout) {
		t.Fatalf("cancelled ctx: err = %v, want canceled/timeout code", err)
	}
}

func renderAll(t *testing.T, rng *rand.Rand) []string {
	t.Helper()
	d := datagen.ChainDB(rng, 1000, 1000)
	ts := d.AllTuples()
	out := make([]string, len(ts))
	for i, tup := range ts {
		out[i] = d.TupleString(tup)
	}
	return out
}

// TestSessionBatchAndStream: DoBatch is index-aligned with per-item
// errors; StreamBatch emits every final result exactly once.
func TestSessionBatchAndStream(t *testing.T) {
	s := newToySession(t)
	ctx := context.Background()
	tasks := []Task{
		{ID: "a", Kind: KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "toy"},
		{ID: "b", Kind: KindSolve, Query: "broken(", DB: "toy"},
		{ID: "c", Kind: KindClassify, Query: "q :- R(x,y), R(y,x)"},
	}
	results := s.DoBatch(ctx, tasks, 0)
	if len(results) != 3 {
		t.Fatalf("len(results) = %d", len(results))
	}
	if results[0].Rho != 2 || results[0].ID != "a" || results[0].Index != 0 {
		t.Fatalf("results[0] = %+v", results[0])
	}
	if results[1].Error == nil || results[1].Error.Code != CodeBadQuery {
		t.Fatalf("results[1] = %+v, want bad_query error", results[1])
	}
	if results[2].Verdict == "" {
		t.Fatalf("results[2] = %+v, want classify verdict", results[2])
	}

	finals := map[string]int{}
	err := s.StreamBatch(ctx, tasks, 0, func(r *Result) error {
		if !r.Partial {
			finals[r.ID]++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("StreamBatch: %v", err)
	}
	if !reflect.DeepEqual(finals, map[string]int{"a": 1, "b": 1, "c": 1}) {
		t.Fatalf("finals = %v, want one per task", finals)
	}
}

// TestSessionStreamEnumerate: the streamed enumeration emits one Partial
// line per set before the final line, and the streamed sets equal the
// non-streamed answer as a set family.
func TestSessionStreamEnumerate(t *testing.T) {
	s := newToySession(t)
	ctx := context.Background()
	task := Task{Kind: KindEnumerate, Query: "qchain :- R(x,y), R(y,z)", DB: "toy"}

	plain, err := s.Do(ctx, task)
	if err != nil {
		t.Fatal(err)
	}

	var streamed [][]string
	var final *Result
	err = s.Stream(ctx, task, func(r *Result) error {
		if r.Partial {
			if final != nil {
				t.Fatal("partial after final")
			}
			if len(r.Sets) != 1 {
				t.Fatalf("partial line carries %d sets, want 1", len(r.Sets))
			}
			if r.Rho != plain.Rho {
				t.Fatalf("partial rho = %d, want %d", r.Rho, plain.Rho)
			}
			streamed = append(streamed, r.Sets[0])
			return nil
		}
		final = r
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.Total != len(streamed) || final.Rho != plain.Rho {
		t.Fatalf("final = %+v with %d streamed", final, len(streamed))
	}
	if !sameSetFamily(streamed, plain.Sets) {
		t.Fatalf("streamed sets %v != plain sets %v", streamed, plain.Sets)
	}
}

func sameSetFamily(a, b [][]string) bool {
	key := func(set []string) string {
		cp := append([]string(nil), set...)
		sort.Strings(cp)
		out := ""
		for _, s := range cp {
			out += s + ";"
		}
		return out
	}
	fam := func(sets [][]string) []string {
		out := make([]string, len(sets))
		for i, s := range sets {
			out[i] = key(s)
		}
		sort.Strings(out)
		return out
	}
	return reflect.DeepEqual(fam(a), fam(b))
}

// TestSessionFacadeParity is the differential backbone of the redesign:
// on random instances spanning PTIME and NP-hard families, the wire-typed
// Do path must agree with direct solver-stack calls for every kind.
func TestSessionFacadeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	families := []struct {
		name  string
		query string
		gen   func() []string
	}{
		{"chain", "qchain :- R(x,y), R(y,z)", func() []string {
			return render(datagen.ChainDB(rng, 10, 5))
		}},
		{"components", "qm :- R(x,y), R(y,z)", func() []string {
			return render(datagen.ManyComponentChainDB(rng, 4, 3, 6))
		}},
		{"perm", "qperm :- R(x,y), R(y,x)", func() []string {
			return render(datagen.PermDB(rng, 12, 4, 20))
		}},
	}
	for _, fam := range families {
		for round := 0; round < 3; round++ {
			s := NewSession(Config{})
			name := fmt.Sprintf("%s-%d", fam.name, round)
			if _, err := s.RegisterFacts(name, fam.gen()); err != nil {
				t.Fatal(err)
			}
			d := s.DB(name)
			ctx := context.Background()

			res, err := s.Do(ctx, Task{Kind: KindSolve, Query: fam.query, DB: name})
			if err != nil {
				t.Fatalf("%s: solve: %v", name, err)
			}
			q, _, aerr := s.resolve(Task{Kind: KindSolve, Query: fam.query, DB: name})
			if aerr != nil {
				t.Fatal(aerr)
			}
			direct, _, err := resilience.Solve(q, d.Clone())
			if err != nil {
				t.Fatalf("%s: direct solve: %v", name, err)
			}
			if res.Rho != direct.Rho {
				t.Fatalf("%s: session ρ=%d, direct ρ=%d", name, res.Rho, direct.Rho)
			}

			enum, err := s.Do(ctx, Task{Kind: KindEnumerate, Query: fam.query, DB: name, MaxSets: 64})
			if err != nil {
				t.Fatalf("%s: enumerate: %v", name, err)
			}
			if enum.Rho != direct.Rho {
				t.Fatalf("%s: enumerate ρ=%d, want %d", name, enum.Rho, direct.Rho)
			}
			for _, set := range enum.Sets {
				if len(set) != direct.Rho {
					t.Fatalf("%s: enumerated set %v has size != ρ", name, set)
				}
			}

			dec, err := s.Do(ctx, Task{Kind: KindDecide, Query: fam.query, DB: name, K: direct.Rho})
			if err != nil {
				t.Fatalf("%s: decide: %v", name, err)
			}
			if !dec.Holds {
				t.Fatalf("%s: decide(ρ) = false", name)
			}

			// The solve contingency verifies.
			ver, err := s.Do(ctx, Task{Kind: KindVerifyContingency, Query: fam.query, DB: name,
				Gamma: res.Contingency})
			if err != nil {
				t.Fatalf("%s: verify: %v", name, err)
			}
			if !ver.Valid {
				t.Fatalf("%s: solve contingency %v does not verify: %s", name, res.Contingency, ver.Reason)
			}
		}
	}
}

// render dumps a database to wire fact strings.
func render(d *db.Database) []string {
	ts := d.AllTuples()
	out := make([]string, len(ts))
	for i, tup := range ts {
		out[i] = d.TupleString(tup)
	}
	return out
}

// TestSessionCostTotalBound: deletion costs that total more than 2^62 are a
// bad request on every weighted kind, so no cost sum can wrap int64; below
// the bound, large costs answer exactly.
func TestSessionCostTotalBound(t *testing.T) {
	s := NewSession(Config{})
	if _, err := s.RegisterFacts("tri", []string{"R(a,b)", "R(b,c)", "R(c,a)"}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const chain = "qchain :- R(x,y), R(y,z)"
	costs := func(w int64) map[string]int64 {
		return map[string]int64{"R(a,b)": w, "R(b,c)": w, "R(c,a)": w}
	}

	over := costs(1 << 62)
	for _, task := range []Task{
		{Kind: KindSolve, Query: chain, DB: "tri", Weights: over},
		{Kind: KindEnumerate, Query: chain, DB: "tri", Weights: over},
		{Kind: KindResponsibility, Query: chain, DB: "tri", Tuple: "R(a,b)", Weights: over},
		{Kind: KindTopKResponsibility, Query: chain, DB: "tri", K: 1, Weights: over},
	} {
		if res, err := s.Do(ctx, task); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s at 3·2^62: res %+v err %v, want bad_request", task.Kind, res, err)
		}
	}

	const want = int64(1) << 61
	under := costs(1 << 60)
	solve, err := s.Do(ctx, Task{Kind: KindSolve, Query: chain, DB: "tri", Weights: under})
	if err != nil {
		t.Fatalf("solve at 3·2^60: %v", err)
	}
	enum, err := s.Do(ctx, Task{Kind: KindEnumerate, Query: chain, DB: "tri", Weights: under})
	if err != nil {
		t.Fatalf("enumerate at 3·2^60: %v", err)
	}
	if len(enum.Sets) == 0 {
		t.Fatalf("enumerate at 3·2^60 = %+v, want minimum-cost sets", enum)
	}
	for _, gamma := range append([][]string{solve.Contingency}, enum.Sets...) {
		if len(gamma) != 2 {
			t.Fatalf("contingency set %v, want two facts", gamma)
		}
		ver, err := s.Do(ctx, Task{Kind: KindVerifyContingency, Query: chain, DB: "tri", Gamma: gamma})
		if err != nil || !ver.Valid {
			t.Fatalf("verify %v: res %+v err %v, want valid", gamma, ver, err)
		}
	}
	if solve.Cost != want || enum.Cost != want {
		t.Fatalf("costs: solve %d, enumerate %d, want 2^61", solve.Cost, enum.Cost)
	}
}
