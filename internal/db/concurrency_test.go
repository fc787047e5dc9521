package db

import (
	"fmt"
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
			v, ok := d.index[fmt.Sprintf("a%d", i)]
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
