package cow

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

func hashInt(k int) uint64 { return Mix(uint64(k)) }

func clampInts(s []int) []int { return s[:len(s):len(s)] }

// TestMapClonesDifferential drives random Set, Delete, in-place appends
// (GetOwned, then Set of the extended slice) and Clone steps over a pool
// of maps that share pages and parts through cloning, growing them across
// several re-splits. After every step each map must equal its reference
// Go map: a write to one map never shows in another, and a slice value
// extended in place after GetOwned never writes where another map can
// read.
func TestMapClonesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type pair struct {
		m   Map[int, []int]
		ref map[int][]int
	}
	pool := []*pair{{m: New[int, []int](0, hashInt, clampInts), ref: map[int][]int{}}}
	for step := 0; step < 6000; step++ {
		i := rng.Intn(len(pool))
		p := pool[i]
		k := rng.Intn(1 + step/3) // the key space grows, so the maps re-split
		switch op := rng.Intn(10); {
		case op == 0:
			c := &pair{m: p.m.Clone(), ref: maps.Clone(p.ref)}
			if len(pool) < 5 {
				pool = append(pool, c)
			} else {
				pool[rng.Intn(len(pool))] = c
			}
		case op <= 3:
			v := []int{step}
			p.m.Set(k, v)
			p.ref[k] = slices.Clone(v)
		case op <= 5:
			if got, want := p.m.Delete(k), p.ref[k] != nil; got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, k, got, want)
			}
			delete(p.ref, k)
		default:
			v, _ := p.m.GetOwned(k)
			p.m.Set(k, append(v, step))
			p.ref[k] = append(slices.Clone(p.ref[k]), step)
		}
		// Check the written map and one other every step, and all of them
		// now and then.
		for j, q := range pool {
			if j == i || j == step%len(pool) || step%200 == 0 {
				if err := mapError(&q.m, q.ref); err != nil {
					t.Fatalf("step %d (map %d written), map %d: %v", step, i, j, err)
				}
			}
		}
	}
}

// mapError compares m with ref through Len, Get, Has and Range.
func mapError(m *Map[int, []int], ref map[int][]int) error {
	if m.Len() != len(ref) {
		return fmt.Errorf("Len = %d, want %d", m.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := m.Get(k); !ok || !slices.Equal(got, want) || !m.Has(k) {
			return fmt.Errorf("Get(%d) = %v, %v; want %v", k, got, ok, want)
		}
	}
	n := 0
	var err error
	m.Range(func(k int, v []int) {
		n++
		if want, ok := ref[k]; err == nil && (!ok || !slices.Equal(v, want)) {
			err = fmt.Errorf("Range gave %d: %v, want %v", k, v, want)
		}
	})
	if err == nil && n != len(ref) {
		err = fmt.Errorf("Range visited %d entries, want %d", n, len(ref))
	}
	return err
}

// TestMapShape pins the shape rule: a map stays one part, however large,
// until its first write after a Clone, which splits it into 2^L pages of
// 2^L parts for L = ⌊log₈ n⌋; it re-splits only when a later first write
// after a Clone finds it grown past its level, and splitting a clone
// leaves its source as it was.
func TestMapShape(t *testing.T) {
	shape := func(m *Map[int, []int]) (pages, parts int) { return len(m.pages), len(m.pages[0].parts) }
	m := New[int, []int](0, hashInt, nil)
	for k := 0; k < 600; k++ {
		m.Set(k, nil)
	}
	c := m.Clone()
	if p, q := shape(&c); p != 1 || q != 1 {
		t.Fatalf("unwritten clone of an unsplit map: %d pages of %d parts, want 1 of 1", p, q)
	}
	c.Set(600, nil) // 601 entries: level 3
	if p, q := shape(&c); p != 8 || q != 8 {
		t.Fatalf("601 entries after a write past a clone: %d pages of %d parts, want 8 of 8", p, q)
	}
	if p, q := shape(&m); p != 1 || q != 1 || m.Len() != 600 {
		t.Fatalf("source after its clone split: %d pages of %d parts, Len %d; want 1 of 1, Len 600", p, q, m.Len())
	}
	for k := 601; k < 5000; k++ {
		c.Set(k, nil)
	}
	if p, q := shape(&c); p != 8 || q != 8 {
		t.Fatalf("grown without a clone: %d pages of %d parts, want still 8 of 8", p, q)
	}
	d := c.Clone()
	d.Delete(0) // 4999 entries: level 4
	if p, q := shape(&d); p != 16 || q != 16 {
		t.Fatalf("4999 entries after a write past a clone: %d pages of %d parts, want 16 of 16", p, q)
	}
	if err := mapError(&d, func() map[int][]int {
		ref := map[int][]int{}
		for k := 1; k < 5000; k++ {
			ref[k] = nil
		}
		return ref
	}()); err != nil {
		t.Fatal(err)
	}
}
