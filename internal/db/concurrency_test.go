package db

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestConcurrentLookup exercises the lazy index rebuild from many readers
// at once — the exact situation the engine's shared-database batches and
// the solver portfolio used to need defensive clones for. Run under
// `go test -race` (the CI default) this is the regression guard for the
// sync-guarded rebuild.
func TestConcurrentLookup(t *testing.T) {
	d := New()
	const n = 200
	for i := 0; i < n; i++ {
		d.AddNames("R", fmt.Sprintf("a%d", i%20), fmt.Sprintf("b%d", i%17))
	}
	r := d.Rel("R")

	probe := func() {
		for i := 0; i < 20; i++ {
			v, ok := d.LookupConst(fmt.Sprintf("a%d", i))
			if !ok {
				continue
			}
			for _, tup := range r.Lookup(0, v) {
				if tup.Args[0] != v {
					t.Errorf("Lookup(0, %v) returned tuple with first arg %v", v, tup.Args[0])
					return
				}
			}
		}
	}

	// Phase 1: cold indexes — every goroutine may trigger the rebuild.
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); probe() }()
	}
	wg.Wait()

	// Phase 2: mutate (patching the built index), Freeze, then read
	// concurrently again — no reader should see a stale index.
	d.AddNames("R", "a0", "fresh")
	d.Freeze()
	found := false
	for _, tup := range r.Lookup(0, d.Const("a0")) {
		if tup.Args[1] == d.Const("fresh") {
			found = true
		}
	}
	if !found {
		t.Fatal("Freeze did not pick up the new tuple")
	}
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); probe() }()
	}
	wg.Wait()
}

// TestRebuildAfterMutation pins that a Delete/RestoreTo cycle (what
// VerifyContingency does) keeps the built positional indexes current.
func TestRebuildAfterMutation(t *testing.T) {
	d := New()
	tup := d.AddNames("R", "x", "y")
	r := d.Rel("R")
	if got := len(r.Lookup(0, d.Const("x"))); got != 1 {
		t.Fatalf("initial Lookup returned %d tuples, want 1", got)
	}
	mark := d.RestoreMark()
	d.Delete(tup)
	if got := len(r.Lookup(0, d.Const("x"))); got != 0 {
		t.Fatalf("Lookup after Delete returned %d tuples, want 0", got)
	}
	d.RestoreTo(mark)
	if got := len(r.Lookup(0, d.Const("x"))); got != 1 {
		t.Fatalf("Lookup after Restore returned %d tuples, want 1", got)
	}
}

// TestConcurrentClonesOfSharedSource pins Clone's concurrency contract:
// Clone makes no plain writes to its source, so several goroutines may
// clone one frozen database at once — as the engine does for the one
// PTIME solver that deletes and restores tuples — and mutate their
// clones, while readers of the source keep getting exactly its contents
// and index. Each clone runs Delete/RestoreTo probes and AddTuple/Remove
// calls and must index its own contents exactly; readers check the
// source's Lookup, DistinctAt and Has against a from-scratch index. Run
// under the race detector (make race-cpu), a write to anything the source
// can see shows up as a race or as a wrong answer.
func TestConcurrentClonesOfSharedSource(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := New()
	for i := 0; i < 300; i++ {
		src.AddTuple(randomIndexTuple(rng, src))
	}
	src.Freeze()
	present := src.AllTuples()
	absent := make([]Tuple, 0, 50)
	for len(absent) < cap(absent) {
		if tup := randomIndexTuple(rng, src); !src.Has(tup) {
			absent = append(absent, tup)
		}
	}
	want := map[string][MaxArity]map[Value][]Tuple{}
	for _, name := range src.RelationNames() {
		want[name] = scratchIndex(src.Rel(name))
	}

	errs := make(chan error, 16)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tup := range present {
					if !src.Has(tup) {
						errs <- fmt.Errorf("source lost %v", tup)
						return
					}
				}
				for _, tup := range absent {
					if src.Has(tup) {
						errs <- fmt.Errorf("source gained %v", tup)
						return
					}
				}
				for name, idx := range want {
					r := src.Rel(name)
					for p := 0; p < r.Arity; p++ {
						if got := r.DistinctAt(p); got != len(idx[p]) {
							errs <- fmt.Errorf("source %s.DistinctAt(%d) = %d, want %d", name, p, got, len(idx[p]))
							return
						}
						for v, b := range idx[p] {
							got := slices.Clone(r.Lookup(p, v))
							SortTuples(got)
							if !slices.Equal(got, b) {
								errs <- fmt.Errorf("source %s.Lookup(%d, %d) = %v, want %v", name, p, v, got, b)
								return
							}
						}
					}
				}
			}
		}()
	}

	var cloners sync.WaitGroup
	for g := 0; g < 4; g++ {
		cloners.Add(1)
		go func(seed int64) {
			defer cloners.Done()
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 25; round++ {
				c := src.Clone()
				if round%5 == 4 {
					c = c.Clone() // a clone of a clone shares the source too
				}
				for i := 0; i < 10; i++ {
					if tup, ok := randomPresent(rng, c); ok && rng.Intn(2) == 0 {
						c.Remove(tup)
					} else {
						c.AddTuple(randomIndexTuple(rng, c))
					}
				}
				before := c.AllTuples()
				mark := c.RestoreMark()
				for k := 1 + rng.Intn(6); k > 0; k-- {
					if tup, ok := randomPresent(rng, c); ok {
						c.Delete(tup)
					}
				}
				if err := indexError(c); err != nil {
					errs <- fmt.Errorf("clone mid-probe: %v", err)
					return
				}
				c.RestoreTo(mark)
				if after := c.AllTuples(); !slices.Equal(after, before) {
					errs <- fmt.Errorf("RestoreTo left %d tuples, want %d", len(after), len(before))
					return
				}
				if err := indexError(c); err != nil {
					errs <- fmt.Errorf("clone after the probe: %v", err)
					return
				}
			}
		}(int64(100 + g))
	}
	cloners.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkIndex(t, "source after the run", src)
	if got := src.AllTuples(); !slices.Equal(got, present) {
		t.Fatalf("source holds %d tuples after the run, want %d", len(got), len(present))
	}
}
