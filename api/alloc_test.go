package api_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/api"
	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/engine"
)

// TestMutateAllocsIndependentOfDBSize pins the cost of a live update to the
// batch rather than the database: a one-tuple MutateDB plus the watcher's
// re-solve allocates about as much on a 400-cluster database as on a
// 100-cluster one. The re-solve goes through Engine.SolveOne, not Do,
// because the contingency set Do renders has one tuple per unit of ρ and
// so grows with the database by design.
func TestMutateAllocsIndependentOfDBSize(t *testing.T) {
	small, large := mutateAllocs(t, 100), mutateAllocs(t, 400)
	t.Logf("allocations per update: %.0f at 100 clusters, %.0f at 400", small, large)
	if large > 1.5*small {
		t.Fatalf("allocations per update grow with the database: %.0f at 100 clusters, %.0f at 400 (%.2fx, want <= 1.5x)",
			small, large, large/small)
	}
}

// mutateAllocs returns the allocations of one update on a chain database
// of the given number of clusters, averaged over insert/delete toggles of
// one edge hung off the first cluster, after a warm-up that leaves both
// states in the engine's component cache.
func mutateAllocs(t *testing.T, clusters int) float64 {
	t.Helper()
	ctx := context.Background()
	sess := api.NewSession(api.Config{Engine: engine.Config{Portfolio: true}})
	d := datagen.ManyComponentChainDB(rand.New(rand.NewSource(1)), clusters, 3, 8)
	if _, err := sess.Register("live", d); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	edge := "R(" + datagen.ConstName(0) + ",ext)"
	on := false
	update := func() {
		op := api.MutationInsert
		if on {
			op = api.MutationDelete
		}
		on = !on
		if _, err := sess.MutateDB(ctx, "live", []api.Mutation{{Op: op, Fact: edge}}); err != nil {
			t.Fatal(err)
		}
		if br := sess.Engine().SolveOne(ctx, engine.Instance{Query: q, DB: sess.DB("live")}); br.Err != nil {
			t.Fatal(br.Err)
		}
	}
	if br := sess.Engine().SolveOne(ctx, engine.Instance{Query: q, DB: sess.DB("live")}); br.Err != nil {
		t.Fatal(br.Err)
	}
	update()
	update()
	return testing.AllocsPerRun(20, update)
}
