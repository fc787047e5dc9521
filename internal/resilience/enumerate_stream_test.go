package resilience

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/witset"
)

// famKey canonicalizes a set family for order-insensitive comparison.
func famKey(d *db.Database, sets [][]db.Tuple) []string {
	out := make([]string, len(sets))
	for i, set := range sets {
		parts := make([]string, len(set))
		for j, t := range set {
			parts[j] = d.TupleString(t)
		}
		sort.Strings(parts)
		key := ""
		for _, p := range parts {
			key += p + ";"
		}
		out[i] = key
	}
	sort.Strings(out)
	return out
}

// TestDifferentialEnumerateStreamVsCollected: on random single- and
// multi-component instances, the streaming enumeration must emit exactly
// the sets the collected enumeration returns, with the same ρ.
func TestDifferentialEnumerateStreamVsCollected(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	cases := []struct {
		name  string
		query string
		gen   func() *db.Database
	}{
		{"chain", "q :- R(x,y), R(y,z)", func() *db.Database { return datagen.ChainDB(rng, 9, 4) }},
		{"many-component", "q :- R(x,y), R(y,z)", func() *db.Database {
			return datagen.ManyComponentChainDB(rng, 4, 3, 7)
		}},
		{"confluence", "q :- A(x), R(x,y), R(z,y), C(z)", func() *db.Database {
			return datagen.ConfluenceDB(rng, 3, 3, 2)
		}},
	}
	for _, c := range cases {
		q := cq.MustParse(c.query)
		for round := 0; round < 5; round++ {
			d := c.gen()
			inst, err := witset.Build(context.Background(), q, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantRho, wantSets, err := EnumerateMinimumOnInstance(context.Background(), inst, d, 0)
			if err != nil {
				t.Fatalf("%s[%d]: collected: %v", c.name, round, err)
			}
			var got [][]db.Tuple
			rho, n, err := EnumerateMinimumWeightedFunc(context.Background(), inst, d, 0,
				func(r int64, set []db.Tuple) error {
					if r != int64(wantRho) {
						t.Fatalf("%s[%d]: emitted rho %d, want %d", c.name, round, r, wantRho)
					}
					got = append(got, set)
					return nil
				})
			if err != nil {
				t.Fatalf("%s[%d]: streaming: %v", c.name, round, err)
			}
			if rho != int64(wantRho) || n != len(got) {
				t.Fatalf("%s[%d]: rho=%d n=%d, want rho=%d n=%d", c.name, round, rho, n, wantRho, len(got))
			}
			if !reflect.DeepEqual(famKey(d, got), famKey(d, wantSets)) {
				t.Fatalf("%s[%d]: streamed family != collected family (%d vs %d sets)",
					c.name, round, len(got), len(wantSets))
			}
		}
	}
}

// TestEnumerateStreamCapAndAbort: maxSets caps emission, and an emit
// error aborts the search and is returned unchanged.
func TestEnumerateStreamCapAndAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := cq.MustParse("q :- R(x,y), R(y,z)")
	d := datagen.ChainDB(rng, 11, 5)
	inst, err := witset.Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, total, err := EnumerateMinimumWeightedFunc(context.Background(), inst, d, 0,
		func(int64, []db.Tuple) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if total < 2 {
		t.Skipf("instance has %d minimum sets; need >= 2 for the cap test", total)
	}

	count := 0
	_, n, err := EnumerateMinimumWeightedFunc(context.Background(), inst, d, 1,
		func(int64, []db.Tuple) error { count++; return nil })
	if err != nil || n != 1 || count != 1 {
		t.Fatalf("maxSets=1: n=%d count=%d err=%v, want exactly one emission", n, count, err)
	}

	boom := errors.New("client went away")
	_, _, err = EnumerateMinimumWeightedFunc(context.Background(), inst, d, 0,
		func(int64, []db.Tuple) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
}

// TestEnumerateStreamCancellation: a context cancelled after the first
// emissions stops the enumeration promptly with the context's error — the
// mechanism the serving layer relies on when a streaming client
// disconnects.
func TestEnumerateStreamCancellation(t *testing.T) {
	// K disjoint 2-edge paths: each contributes one witness {e1, e2} with
	// ρ = 1 and two minimum sets, so the instance has 2^K minimum
	// contingency sets — far more than the cancelled stream may emit.
	const K = 18
	d := db.New()
	for i := 0; i < K; i++ {
		a, b, c := 3*i, 3*i+1, 3*i+2
		d.AddNames("R", datagen.ConstName(a), datagen.ConstName(b))
		d.AddNames("R", datagen.ConstName(b), datagen.ConstName(c))
	}
	q := cq.MustParse("q :- R(x,y), R(y,z)")
	inst, err := witset.Build(context.Background(), q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, _, err = EnumerateMinimumWeightedFunc(ctx, inst, d, 0, func(int64, []db.Tuple) error {
		emitted++
		if emitted == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted < 3 {
		t.Fatalf("emitted %d sets before cancel, want >= 3", emitted)
	}
	// Cancellation latency is bounded by the poll interval, so the stream
	// must stop after a tiny fraction of the 2^K sets.
	if emitted > 3+4096 {
		t.Fatalf("emitted %d sets after cancel; cancellation did not stop the cross product", emitted)
	}
}
