package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/db"
)

// compCache remembers solved witness-hypergraph components by content
// fingerprint (witset.Instance.ComponentKey): the component's rows
// rendered over its ground tuples. Keys are taken on the raw (normalized,
// un-kernelized) components, before any per-component kernelization runs —
// that is what makes the cache the engine half of delta IR maintenance:
// after a tuple mutation, every component the mutation did not touch
// fingerprints identically to its pre-mutation self and is answered from
// here without kernelizing or running a solver. The new ρ is then a
// re-sum of cached component minima plus fresh kernelize+solve passes over
// the dirtied components only.
//
// Soundness: equal fingerprints mean equal row multisets over identical
// ground tuples, so the minimum hitting sets coincide — the cached size
// and the cached optimum (stored as ground tuples, not instance-local ids)
// transfer verbatim.
//
// Entries also record which portfolio racer produced them and the
// kernelization counters of the skipped work, so a solve answered partly
// from cache reconstructs the same method string and the same statistics
// the all-fresh solve reported (the parity suite pins method stability).
//
// The cache is only consulted under Config.NoClone (the serving-layer
// mode, same condition as the IR cache): with per-request cloning every
// request pays full price by design, and the batch-mode counter invariants
// the tests pin stay exact.
type compCache struct {
	mu    sync.Mutex
	m     map[string]*compEntry
	order []string // insertion order, for FIFO eviction
	max   int

	hits   atomic.Int64
	misses atomic.Int64
}

// compEntry is one solved raw component: its minimum hitting-set size
// (forced deletions included), one optimum as ground tuples, which
// portfolio racers contributed, and the counters of the kernelize+solve
// work a cache hit skips — sub-components solved, tuples forced, tuples
// dominated — so stats stay comparable between cached and fresh solves.
type compEntry struct {
	rho       int
	tuples    []db.Tuple
	exact     bool
	sat       bool
	subs      int
	forced    int
	dominated int
}

// defaultCompCacheMax bounds the number of cached component optima.
// Components are much lighter than whole IRs (a size plus a small tuple
// slice), so the cap is generous: many-component databases are exactly the
// workload the cache exists for.
const defaultCompCacheMax = 4096

func newCompCache(max int) *compCache {
	if max <= 0 {
		max = defaultCompCacheMax
	}
	return &compCache{m: map[string]*compEntry{}, max: max}
}

// get returns the entry cached under key. Entries are never modified
// once put, so the pointer may be read without the lock.
func (c *compCache) get(key string) (*compEntry, bool) {
	c.mu.Lock()
	e, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

func (c *compCache) put(key string, e *compEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	for len(c.m) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
	}
	c.m[key] = e
	c.order = append(c.order, key)
}

func (c *compCache) stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
