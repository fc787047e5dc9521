package api

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSessionMutateDB drives the mutation surface: a successful batch
// bumps the version and changes the answer, and every malformed batch is
// rejected atomically with a typed error naming the offending index.
func TestSessionMutateDB(t *testing.T) {
	s := newToySession(t)
	ctx := context.Background()
	const chain = "qchain :- R(x,y), R(y,z)"

	before, ok := s.Info("toy")
	if !ok {
		t.Fatal("toy not registered")
	}

	// Insert a disjoint chain component: one more witness, ρ 2 → 3.
	info, err := s.MutateDB(ctx, "toy", []Mutation{
		{Op: MutationInsert, Fact: "R(5,6)"},
		{Op: MutationInsert, Fact: "R(6,7)"},
	})
	if err != nil {
		t.Fatalf("insert batch: %v", err)
	}
	if info.Version <= before.Version || info.Tuples != before.Tuples+2 {
		t.Fatalf("info after insert = %+v, want version > %d and %d tuples",
			info, before.Version, before.Tuples+2)
	}
	res, err := s.Do(ctx, Task{Kind: KindSolve, Query: chain, DB: "toy"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != 3 {
		t.Fatalf("ρ after insert = %d, want 3", res.Rho)
	}

	// Delete one of them again: back to ρ = 2.
	if _, err := s.MutateDB(ctx, "toy", []Mutation{{Op: MutationDelete, Fact: "R(6,7)"}}); err != nil {
		t.Fatalf("delete batch: %v", err)
	}
	res, err = s.Do(ctx, Task{Kind: KindSolve, Query: chain, DB: "toy"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != 2 {
		t.Fatalf("ρ after delete = %d, want 2", res.Rho)
	}

	// Typed rejections, each leaving the registration untouched.
	mid, _ := s.Info("toy")
	bad := []struct {
		muts []Mutation
		want error
	}{
		{nil, ErrBadRequest},
		{[]Mutation{{Op: "replace", Fact: "R(1,2)"}}, ErrBadRequest},
		{[]Mutation{{Op: MutationInsert, Fact: "R(("}}, ErrBadTuple},
		{[]Mutation{{Op: MutationInsert, Fact: "R(1,2)"}}, ErrBadTuple},                                       // already present
		{[]Mutation{{Op: MutationDelete, Fact: "R(9,9)"}}, ErrBadTuple},                                       // absent
		{[]Mutation{{Op: MutationInsert, Fact: "R(1,2,3)"}}, ErrBadTuple},                                     // arity clash
		{[]Mutation{{Op: MutationInsert, Fact: "R(7,8)"}, {Op: MutationDelete, Fact: "R(9,9)"}}, ErrBadTuple}, // atomic: good prefix discarded
	}
	for i, c := range bad {
		if _, err := s.MutateDB(ctx, "toy", c.muts); !errors.Is(err, c.want) {
			t.Errorf("bad case %d: err = %v, want %v", i, err, c.want)
		}
	}
	if _, err := s.MutateDB(ctx, "ghost", []Mutation{{Op: MutationInsert, Fact: "R(1,2)"}}); !errors.Is(err, ErrUnknownDB) {
		t.Errorf("unknown db: err = %v, want %v", err, ErrUnknownDB)
	}
	after, _ := s.Info("toy")
	if after.Version != mid.Version || after.Tuples != mid.Tuples {
		t.Fatalf("rejected batches changed the registration: %+v -> %+v", mid, after)
	}
	// The good prefix of the atomic case must not be visible.
	if res, err := s.Do(ctx, Task{Kind: KindSolve, Query: chain, DB: "toy"}); err != nil || res.Rho != 2 {
		t.Fatalf("ρ after rejected batches = %v/%v, want 2", res, err)
	}
}

// TestSessionWatchLifecycle pins the watch contract on one subscriber: an
// initial snapshot line, a change line per answer-changing mutation (with
// the bumped version), silence on no-op writes, and — with MaxEvents — a
// final non-Partial totals line. FromVersion suppresses the snapshot for
// a reconnecting subscriber that has already seen the current state.
func TestSessionWatchLifecycle(t *testing.T) {
	s := newToySession(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const chain = "qchain :- R(x,y), R(y,z)"

	lines := make(chan *Result, 16)
	done := make(chan error, 1)
	go func() {
		done <- s.Stream(ctx, Task{Kind: KindWatch, Query: chain, DB: "toy", MaxEvents: 2},
			func(r *Result) error {
				lines <- r
				return nil
			})
	}()

	next := func() *Result {
		select {
		case r := <-lines:
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for a watch line")
			return nil
		}
	}

	snap := next()
	if !snap.Partial || snap.Rho != 2 || snap.Version == 0 {
		t.Fatalf("snapshot = %+v, want Partial ρ=2 with a version", snap)
	}

	// A mutation that cannot change ρ (a dangling edge joins no witness)
	// must be absorbed silently; the next change line reflects only the
	// second, answer-changing batch.
	if _, err := s.MutateDB(ctx, "toy", []Mutation{{Op: MutationInsert, Fact: "R(8,9)"}}); err != nil {
		t.Fatal(err)
	}
	info, err := s.MutateDB(ctx, "toy", []Mutation{
		{Op: MutationInsert, Fact: "R(5,6)"},
		{Op: MutationInsert, Fact: "R(6,7)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	change := next()
	if !change.Partial || change.Rho != 3 || change.Version != info.Version {
		t.Fatalf("change line = %+v, want Partial ρ=3 at version %d", change, info.Version)
	}

	// MaxEvents = 2 reached: the stream ends with a non-Partial totals line.
	final := next()
	if final.Partial || final.Total != 2 || final.Rho != 3 || final.Version != info.Version {
		t.Fatalf("final line = %+v, want totals with 2 events at ρ=3", final)
	}
	if err := <-done; err != nil {
		t.Fatalf("watch stream: %v", err)
	}

	// Reconnect from the current version: the snapshot is suppressed, so
	// the first line is the next change.
	lines2 := make(chan *Result, 16)
	done2 := make(chan error, 1)
	go func() {
		done2 <- s.Stream(ctx, Task{Kind: KindWatch, Query: chain, DB: "toy",
			FromVersion: info.Version, MaxEvents: 1},
			func(r *Result) error {
				lines2 <- r
				return nil
			})
	}()
	// No deterministic "subscribed" signal exists; the delete below is
	// answer-changing, so even a line emitted before subscription would
	// differ from the snapshot this test rejects.
	time.Sleep(50 * time.Millisecond)
	info2, err := s.MutateDB(ctx, "toy", []Mutation{{Op: MutationDelete, Fact: "R(6,7)"}})
	if err != nil {
		t.Fatal(err)
	}
	first := <-lines2
	if !first.Partial || first.Rho != 2 || first.Version != info2.Version {
		t.Fatalf("reconnect first line = %+v, want the ρ=2 change at version %d (snapshot suppressed)",
			first, info2.Version)
	}
	<-lines2 // final totals
	if err := <-done2; err != nil {
		t.Fatalf("reconnect watch stream: %v", err)
	}
}

// TestSessionWatchConcurrentMutations is the race half of the delta
// differential suite (run under -race in CI): several watchers subscribe
// to one database while concurrent writers drive mutation batches against
// it. Every watcher must observe strictly increasing versions with
// non-decreasing ρ (the workload only inserts disjoint witnesses) and
// converge on the final answer, while the engine delta-migrates its IRs
// across every batch.
func TestSessionWatchConcurrentMutations(t *testing.T) {
	s := newToySession(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const chain = "qchain :- R(x,y), R(y,z)"
	const watchers = 4
	const writers = 3
	const batchesPerWriter = 8

	type seen struct {
		mu    sync.Mutex
		lines []*Result
		// subscribed is closed on the first Partial line: the snapshot
		// solve has run, so the engine holds the IR the writers migrate.
		subscribed chan struct{}
		once       sync.Once
	}
	var (
		wg      sync.WaitGroup
		streams [watchers]seen
		errs    [watchers]error
	)
	for w := 0; w < watchers; w++ {
		streams[w].subscribed = make(chan struct{})
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			err := s.Stream(ctx, Task{Kind: KindWatch, Query: chain, DB: "toy"},
				func(r *Result) error {
					// The unbounded watch ends by cancellation, which Stream
					// surfaces as a final non-Partial Result carrying Error;
					// only the Partial change lines are the watch payload.
					if !r.Partial {
						return nil
					}
					streams[w].mu.Lock()
					streams[w].lines = append(streams[w].lines, r)
					streams[w].mu.Unlock()
					streams[w].once.Do(func() { close(streams[w].subscribed) })
					return nil
				})
			if err != nil && ctx.Err() == nil {
				errs[w] = err
			}
		}(w)
	}
	// Writers start only once every watcher has its snapshot line: before
	// that the engine may hold no IR of the database, and a batch landing
	// first would have nothing to delta-migrate.
	for w := 0; w < watchers; w++ {
		select {
		case <-streams[w].subscribed:
		case <-time.After(15 * time.Second):
			t.Fatalf("watcher %d: no snapshot line within 15s", w)
		}
	}

	// Writers insert disjoint two-edge chains, one new witness per batch:
	// ρ increases by exactly writers×batchesPerWriter overall, through
	// serialized batches in nondeterministic order.
	var wwg sync.WaitGroup
	writerErrs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wwg.Add(1)
		go func(g int) {
			defer wwg.Done()
			for i := 0; i < batchesPerWriter; i++ {
				base := 100 + g*100 + i*10
				_, err := s.MutateDB(ctx, "toy", []Mutation{
					{Op: MutationInsert, Fact: fmt.Sprintf("R(%d,%d)", base, base+1)},
					{Op: MutationInsert, Fact: fmt.Sprintf("R(%d,%d)", base+1, base+2)},
				})
				if err != nil {
					writerErrs[g] = err
					return
				}
			}
		}(g)
	}
	wwg.Wait()
	for g, err := range writerErrs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}

	wantRho := 2 + writers*batchesPerWriter
	final, _ := s.Info("toy")

	// Coalescing may skip intermediate states, but ρ changed on every
	// batch, so each watcher's stream must end on the final answer.
	deadline := time.After(15 * time.Second)
	for w := 0; w < watchers; w++ {
		for {
			streams[w].mu.Lock()
			n := len(streams[w].lines)
			var last *Result
			if n > 0 {
				last = streams[w].lines[n-1]
			}
			streams[w].mu.Unlock()
			if last != nil && last.Version == final.Version {
				if last.Rho != wantRho {
					t.Fatalf("watcher %d: final ρ = %d, want %d", w, last.Rho, wantRho)
				}
				break
			}
			select {
			case <-deadline:
				t.Fatalf("watcher %d: never reached version %d (last %+v)", w, final.Version, last)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	cancel()
	wg.Wait()

	for w := 0; w < watchers; w++ {
		if errs[w] != nil {
			t.Fatalf("watcher %d: %v", w, errs[w])
		}
		lines := streams[w].lines
		for i := 1; i < len(lines); i++ {
			if lines[i].Version <= lines[i-1].Version {
				t.Fatalf("watcher %d: versions not strictly increasing: %d then %d",
					w, lines[i-1].Version, lines[i].Version)
			}
			if lines[i].Rho < lines[i-1].Rho {
				t.Fatalf("watcher %d: ρ decreased on an insert-only workload: %d then %d",
					w, lines[i-1].Rho, lines[i].Rho)
			}
		}
	}

	st := s.Engine().Stats()
	if st.IRMigrations == 0 {
		t.Fatal("IRMigrations = 0: mutations never exercised the delta path")
	}
	if st.CompCacheHits == 0 {
		t.Fatal("CompCacheHits = 0: re-solves never reused untouched components")
	}
}
