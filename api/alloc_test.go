package api_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/api"
	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/engine"
)

// TestMutateAllocsIndependentOfDBSize pins the cost of a live update to the
// batch rather than the database: a one-tuple MutateDB plus the watcher's
// re-solve allocates about as much on a 400-cluster database as on a
// 100-cluster one. The re-solve goes through Engine.SolveOne, not Do,
// because the contingency set Do renders has one tuple per unit of ρ and
// so grows with the database by design.
func TestMutateAllocsIndependentOfDBSize(t *testing.T) {
	small := testing.AllocsPerRun(20, newUpdateLoop(t, 100).update)
	large := testing.AllocsPerRun(20, newUpdateLoop(t, 400).update)
	t.Logf("allocations per update: %.0f at 100 clusters, %.0f at 400", small, large)
	if large > 1.5*small {
		t.Fatalf("allocations per update grow with the database: %.0f at 100 clusters, %.0f at 400 (%.2fx, want <= 1.5x)",
			small, large, large/small)
	}
}

// TestMutateBytesIndependentOfDBSize weighs what TestMutateAllocsIndependentOfDBSize
// counts: a copy of the whole database, of its indexes or of the witness
// universe can be one allocation at any size, but its bytes grow with the
// database. One update on a 400-cluster database must allocate at most
// 1.5x the bytes of one on a 100-cluster database, not counting the
// contingency set the re-solve returns: its ρ tuples are the answer, and
// they grow with the database by design (SolveOne allocates exactly them).
func TestMutateBytesIndependentOfDBSize(t *testing.T) {
	small, large := newUpdateLoop(t, 100).bytesPerUpdate(20), newUpdateLoop(t, 400).bytesPerUpdate(20)
	t.Logf("bytes per update beyond the returned contingency set: %.0f at 100 clusters, %.0f at 400", small, large)
	if large > 1.5*small {
		t.Fatalf("bytes per update grow with the database: %.0f at 100 clusters, %.0f at 400 (%.2fx, want <= 1.5x)",
			small, large, large/small)
	}
}

// updateLoop drives updates on a chain database of some number of
// clusters: each update toggles (inserts, then deletes) one edge hung off
// the first cluster and re-solves, as a watcher would.
type updateLoop struct {
	update func()
	// gamma is the capacity of the contingency set the last re-solve
	// returned.
	gamma int
}

// newUpdateLoop registers the database and runs a warm-up that leaves
// both states of the toggled edge in the engine's component cache.
func newUpdateLoop(t *testing.T, clusters int) *updateLoop {
	t.Helper()
	ctx := context.Background()
	sess := api.NewSession(api.Config{Engine: engine.Config{Portfolio: true}})
	d := datagen.ManyComponentChainDB(rand.New(rand.NewSource(1)), clusters, 3, 8)
	if _, err := sess.Register("live", d); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("qchain :- R(x,y), R(y,z)")
	edge := "R(" + datagen.ConstName(0) + ",ext)"
	l := &updateLoop{}
	solve := func() {
		br := sess.Engine().SolveOne(ctx, engine.Instance{Query: q, DB: sess.DB("live")})
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		l.gamma = cap(br.Res.ContingencySet)
	}
	on := false
	l.update = func() {
		op := api.MutationInsert
		if on {
			op = api.MutationDelete
		}
		on = !on
		if _, err := sess.MutateDB(ctx, "live", []api.Mutation{{Op: op, Fact: edge}}); err != nil {
			t.Fatal(err)
		}
		solve()
	}
	solve()
	l.update()
	l.update()
	return l
}

// bytesPerUpdate returns the bytes one update allocates, less the
// allocation of the contingency set its re-solve returned, averaged over
// runs updates after a warm-up one (on one processor, like
// testing.AllocsPerRun).
func (l *updateLoop) bytesPerUpdate(runs int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l.update()
	gammas := make([]int, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range gammas {
		l.update()
		gammas[i] = l.gamma
	}
	runtime.ReadMemStats(&after)
	total := float64(after.TotalAlloc - before.TotalAlloc)
	for _, n := range gammas {
		total -= float64(tupleSliceBytes(n))
	}
	return total / float64(runs)
}

var tupleSink []db.Tuple

// tupleSliceBytes returns the bytes the runtime allocates for a slice of
// n tuples, rounding to its size classes included.
func tupleSliceBytes(n int) uint64 {
	if n == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tupleSink = make([]db.Tuple, n)
	runtime.ReadMemStats(&after)
	tupleSink = nil
	return after.TotalAlloc - before.TotalAlloc
}
