package db

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// indexRels are the relations of the index-maintenance tests. R's first
// argument ranges over three constants only, so its position-0 buckets
// are large and runs of removals from them exceed the patch budget and
// drop the index; the other positions have small buckets that are
// patched.
var indexRels = []struct {
	name  string
	arity int
	dom   [MaxArity]int
}{
	{"R", 2, [MaxArity]int{3, 12}},
	{"S", 1, [MaxArity]int{10}},
	{"T", 3, [MaxArity]int{6, 6, 6}},
}

func randomIndexTuple(rng *rand.Rand, d *Database) Tuple {
	r := indexRels[rng.Intn(len(indexRels))]
	args := make([]Value, r.arity)
	for p := range args {
		args[p] = d.Const(fmt.Sprint(rng.Intn(r.dom[p])))
	}
	return NewTuple(r.name, args...)
}

// randomPresent returns a uniformly drawn tuple of d, if d has any.
func randomPresent(rng *rand.Rand, d *Database) (Tuple, bool) {
	all := d.AllTuples()
	if len(all) == 0 {
		return Tuple{}, false
	}
	return all[rng.Intn(len(all))], true
}

// scratchIndex is the index a from-scratch build gives: per position,
// value → tuples sorted.
func scratchIndex(r *Relation) [MaxArity]map[Value][]Tuple {
	var idx [MaxArity]map[Value][]Tuple
	for p := 0; p < r.Arity; p++ {
		idx[p] = map[Value][]Tuple{}
	}
	r.tuples.Range(func(args [MaxArity]Value, _ struct{}) {
		t := Tuple{Rel: r.Name, Arity: uint8(r.Arity), Args: args}
		for p := 0; p < r.Arity; p++ {
			idx[p][args[p]] = append(idx[p][args[p]], t)
		}
	})
	for p := 0; p < r.Arity; p++ {
		for _, b := range idx[p] {
			SortTuples(b)
		}
	}
	return idx
}

// checkIndex fails unless every relation of d answers Lookup and
// DistinctAt exactly as a from-scratch build over its tuples would.
func checkIndex(t *testing.T, label string, d *Database) {
	t.Helper()
	if err := indexError(d); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// indexError is checkIndex's comparison, reporting the first difference.
func indexError(d *Database) error {
	for _, name := range d.RelationNames() {
		r := d.Rel(name)
		want := scratchIndex(r)
		for p := 0; p < r.Arity; p++ {
			if got := r.DistinctAt(p); got != len(want[p]) {
				return fmt.Errorf("%s.DistinctAt(%d) = %d, want %d", name, p, got, len(want[p]))
			}
			for v := Value(0); int(v) < d.NumConsts(); v++ {
				got := slices.Clone(r.Lookup(p, v))
				SortTuples(got)
				if !slices.Equal(got, want[p][v]) {
					return fmt.Errorf("%s.Lookup(%d, %s) = %v, want %v", name, p, d.ConstName(v), got, want[p][v])
				}
			}
		}
	}
	return nil
}

// TestIndexMaintenanceRandomized drives random add, remove, Delete /
// RestoreTo and Clone steps over a pool of databases that share index
// buckets through cloning. After every step, every database of the pool
// must answer Lookup and DistinctAt exactly as a from-scratch index
// build: a mutation patches only its own database's index, and never a
// bucket another database can see.
func TestIndexMaintenanceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := New()
	for i := 0; i < 60; i++ {
		d.AddTuple(randomIndexTuple(rng, d))
	}
	d.Freeze()
	pool := []*Database{d}
	for step := 0; step < 1500; step++ {
		i := rng.Intn(len(pool))
		cur := pool[i]
		label := fmt.Sprintf("step %d (database %d)", step, i)
		switch op := rng.Intn(10); {
		case op == 0:
			c := cur.Clone()
			if len(pool) < 6 {
				pool = append(pool, c)
			} else {
				pool[rng.Intn(len(pool))] = c
			}
		case op <= 4:
			cur.AddTuple(randomIndexTuple(rng, cur))
		case op <= 8:
			if tup, ok := randomPresent(rng, cur); ok {
				cur.Remove(tup)
			}
		default:
			// A probe-and-undo run, as the flow solvers do it.
			mark := cur.RestoreMark()
			for k := rng.Intn(8); k > 0; k-- {
				if tup, ok := randomPresent(rng, cur); ok {
					cur.Delete(tup)
				}
			}
			checkIndex(t, label+" mid-probe", cur)
			cur.RestoreTo(mark)
		}
		// Check only some databases each step, so mutations also land on
		// relations whose index is not built (and clones that carry none).
		for j, other := range pool {
			if j == i || rng.Intn(3) == 0 {
				checkIndex(t, fmt.Sprintf("%s, checking database %d", label, j), other)
			}
		}
	}
}

// TestCloneMutationsInvisibleToSource pins the bucket-sharing contract
// under the race detector: readers of a frozen database keep getting its
// exact index while clones of it (and clones of those) are mutated
// concurrently, and readers of a clone are likewise undisturbed while its
// source is mutated. A bucket written in place where another database can
// see it shows up as a race or as a wrong Lookup.
func TestCloneMutationsInvisibleToSource(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := New()
	for i := 0; i < 200; i++ {
		src.AddTuple(randomIndexTuple(rng, src))
	}
	src.Freeze()
	clone := src.Clone()

	// read hammers Lookup and DistinctAt on d until stop closes, comparing
	// with d's index as it was before the readers started.
	read := func(d *Database, stop <-chan struct{}, errs chan<- error) {
		want := map[string][MaxArity]map[Value][]Tuple{}
		for _, name := range d.RelationNames() {
			want[name] = scratchIndex(d.Rel(name))
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for name, idx := range want {
						r := d.Rel(name)
						for p := 0; p < r.Arity; p++ {
							if r.DistinctAt(p) != len(idx[p]) {
								errs <- fmt.Errorf("%s.DistinctAt(%d) changed", name, p)
								return
							}
							for v, b := range idx[p] {
								got := slices.Clone(r.Lookup(p, v))
								SortTuples(got)
								if !slices.Equal(got, b) {
									errs <- fmt.Errorf("%s.Lookup(%d, %d) = %v, want %v", name, p, v, got, b)
									return
								}
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		errs <- nil
	}
	mutate := func(d *Database, n int) {
		for i := 0; i < n; i++ {
			if tup, ok := randomPresent(rng, d); ok && rng.Intn(2) == 0 {
				d.Remove(tup)
			} else {
				d.AddTuple(randomIndexTuple(rng, d))
			}
		}
	}

	for phase, target := range []*Database{src, clone} {
		stop := make(chan struct{})
		errs := make(chan error, 4)
		go read(target, stop, errs)
		for round := 0; round < 40; round++ {
			if phase == 0 {
				// Readers on src; mutate clones of src and of its clones.
				c := src.Clone()
				mutate(c, 20)
				mutate(c.Clone(), 20)
			} else {
				// Readers on clone; mutate its source.
				mutate(src, 10)
			}
		}
		close(stop)
		for err := range errs {
			if err != nil {
				t.Fatalf("phase %d: %v", phase, err)
			}
			break
		}
	}
	checkIndex(t, "source after the run", src)
	checkIndex(t, "clone after the run", clone)
}
