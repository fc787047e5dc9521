package api

import (
	"context"
	"testing"

	"repro/internal/engine"
)

// TestMutateDBMigratesIntoFullIRCache pins that a live update carries the
// cached IR across the batch even when the IR cache is full: the migrated
// IR takes its source's place instead of needing a free slot, so the solve
// after the batch is answered from the migrated IR, not a rebuild.
func TestMutateDBMigratesIntoFullIRCache(t *testing.T) {
	s := NewSession(Config{Engine: engine.Config{IRCacheSize: 1}})
	ctx := context.Background()
	if _, err := s.RegisterFacts("live", []string{"R(1,2)", "R(2,3)", "R(3,4)", "R(7,8)", "R(8,9)"}); err != nil {
		t.Fatal(err)
	}
	solve := func(want int) {
		t.Helper()
		res, err := s.Do(ctx, Task{Kind: KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "live"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rho != want {
			t.Fatalf("ρ = %d, want %d", res.Rho, want)
		}
	}
	solve(2)
	if _, err := s.MutateDB(ctx, "live", []Mutation{{Op: MutationInsert, Fact: "R(9,10)"}}); err != nil {
		t.Fatal(err)
	}
	solve(2)
	if st := s.Engine().Stats(); st.IRMigrations != 1 || st.IRBuilds != 1 {
		t.Fatalf("IRMigrations = %d, IRBuilds = %d; want 1 and 1: the migrated IR should replace its source in the full cache",
			st.IRMigrations, st.IRBuilds)
	}
}
