package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/witset"
)

// irCache shares witness-hypergraph IRs across requests: building the IR
// (witness enumeration + interning + derived families) is the dominant
// per-request cost for NP-side queries against a fixed database, and the
// resulting witset.Instance is immutable, so a long-lived engine serving a
// registered database should pay it once per (query class, database
// version) rather than once per request.
//
// The key is three-level: (database UID, database version) pins the exact
// contents — any mutation bumps the version, so stale IRs are never
// returned — and an isomorphism-invariant query signature selects a
// bucket, inside which core.RelationMapping confirms alpha-equivalence
// (variable renaming only; relation names must match identically, because
// witnesses come from concretely named relations of the database).
//
// Builds are single-flight: concurrent requests for the same key elect one
// builder and the rest wait on its result, so a thundering herd of
// identical queries performs exactly one witness enumeration. A build that
// fails (typically: the builder's context expired) is evicted so later
// requests retry rather than inheriting the error forever.
type irCache struct {
	mu      sync.Mutex
	buckets map[irKey][]*irEntry
	size    int
	max     int

	hits   atomic.Int64
	misses atomic.Int64
}

type irKey struct {
	dbUID     uint64
	dbVersion uint64
	sig       string
}

// irEntry is a single-flight future: the builder closes ready after
// setting inst/err, and waiters block on ready (or their own context).
type irEntry struct {
	q     *cq.Query
	ready chan struct{}
	inst  *witset.Instance
	err   error
}

// defaultIRCacheMax bounds the number of cached IRs. IRs are much heavier
// than classifications (they hold the interned witness family), so the cap
// is smaller than the classification cache's. When full the cache stops
// inserting; builds still happen, they just aren't remembered.
const defaultIRCacheMax = 256

func newIRCache(max int) *irCache {
	if max <= 0 {
		max = defaultIRCacheMax
	}
	return &irCache{buckets: map[irKey][]*irEntry{}, max: max}
}

// get returns the cached IR for (q, d), building it with build on a miss.
// Exactly one caller per key runs build; the rest wait for its result or
// their own context, whichever comes first. A waiter whose builder failed
// does not inherit the builder's error: the failed entry has already been
// evicted, so the waiter retries — with its own context and budget — and
// typically becomes the next builder.
func (c *irCache) get(ctx context.Context, q *cq.Query, d *db.Database, build func() (*witset.Instance, error)) (*witset.Instance, error) {
	key := irKey{dbUID: d.UID(), dbVersion: d.Version(), sig: signature(q)}

	for {
		c.mu.Lock()
		e := c.lookup(key, q)
		if e == nil {
			break
		}
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err == nil {
			c.hits.Add(1)
			return e.inst, nil
		}
		// The elected builder failed — usually its context expired, which
		// says nothing about ours. Bail out only if we are cancelled too.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	c.misses.Add(1)
	var e *irEntry
	// Newer versions of a database supersede older ones; dropping the
	// stale entries before the capacity check keeps a frequently mutated
	// database from squeezing live IRs out of the cap.
	c.evictStaleLocked(key.dbUID, key.dbVersion)
	if c.size < c.max {
		e = &irEntry{q: q.Clone(), ready: make(chan struct{})}
		c.buckets[key] = append(c.buckets[key], e)
		c.size++
	}
	c.mu.Unlock()

	inst, err := build()
	if e != nil {
		e.inst, e.err = inst, err
		if err != nil {
			c.remove(key, e)
		}
		close(e.ready)
	}
	return inst, err
}

// peek returns the ready, successfully built IR for (q, d), or nil. It
// never waits on an in-flight build and never counts a hit or miss.
func (c *irCache) peek(q *cq.Query, d *db.Database) *witset.Instance {
	key := irKey{dbUID: d.UID(), dbVersion: d.Version(), sig: signature(q)}
	c.mu.Lock()
	e := c.lookup(key, q)
	c.mu.Unlock()
	if e == nil {
		return nil
	}
	select {
	case <-e.ready:
		if e.err == nil {
			return e.inst
		}
	default:
	}
	return nil
}

// keyedEntry is a cache entry with the key it is stored under.
type keyedEntry struct {
	key irKey
	*irEntry
}

// entriesFor snapshots the completed, successfully built entries keyed to
// the given database identity and version. MigrateIRs walks these to carry
// IRs across a mutation.
func (c *irCache) entriesFor(dbUID, dbVersion uint64) []keyedEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []keyedEntry
	for k, bucket := range c.buckets {
		if k.dbUID != dbUID || k.dbVersion != dbVersion {
			continue
		}
		for _, e := range bucket {
			select {
			case <-e.ready:
				if e.err == nil {
					out = append(out, keyedEntry{k, e})
				}
			default:
			}
		}
	}
	return out
}

// migrate stores inst, src's IR delta-maintained to the database
// (dbUID, dbVersion), in src's place: src leaves the cache, so a migration
// needs no free capacity and a full cache still carries its IRs across a
// mutation. Respects the single-entry-per-equivalent-query rule (an entry
// already built for the new database wins, and src stays); reports
// whether inst was stored.
func (c *irCache) migrate(src keyedEntry, dbUID, dbVersion uint64, inst *witset.Instance) bool {
	key := irKey{dbUID: dbUID, dbVersion: dbVersion, sig: src.key.sig}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lookup(key, src.q) != nil {
		return false
	}
	c.removeLocked(src.key, src.irEntry)
	c.evictStaleLocked(dbUID, dbVersion)
	if c.size >= c.max {
		return false
	}
	e := &irEntry{q: src.q, ready: make(chan struct{}), inst: inst}
	close(e.ready)
	c.buckets[key] = append(c.buckets[key], e)
	c.size++
	return true
}

// lookup scans the bucket for an alpha-equivalent entry. Callers hold c.mu.
func (c *irCache) lookup(key irKey, q *cq.Query) *irEntry {
	for _, e := range c.buckets[key] {
		relMap, ok := core.RelationMapping(e.q, q)
		if !ok {
			continue
		}
		identity := true
		for from, to := range relMap {
			if from != to {
				identity = false
				break
			}
		}
		if identity {
			return e
		}
	}
	return nil
}

// evictStaleLocked drops every entry of the given database with a
// different version. Callers hold c.mu.
func (c *irCache) evictStaleLocked(dbUID, dbVersion uint64) {
	for k, bucket := range c.buckets {
		if k.dbUID == dbUID && k.dbVersion != dbVersion {
			c.size -= len(bucket)
			delete(c.buckets, k)
		}
	}
}

// evictUID drops every entry of the given database, whatever its version.
// The serving layer calls this when a registered database is deleted or
// replaced: its IRs are unreachable from then on (a re-upload has a fresh
// UID), and without eviction dead entries would pin their witness
// families and eat the cache cap for the process lifetime. In-flight
// waiters on an evicted entry are unaffected — they hold the entry and
// still receive the builder's result.
func (c *irCache) evictUID(dbUID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, bucket := range c.buckets {
		if k.dbUID == dbUID {
			c.size -= len(bucket)
			delete(c.buckets, k)
		}
	}
}

// remove evicts a failed entry so later requests rebuild.
func (c *irCache) remove(key irKey, e *irEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(key, e)
}

// removeLocked drops e from key's bucket if it is still there. Callers
// hold c.mu.
func (c *irCache) removeLocked(key irKey, e *irEntry) {
	bucket := c.buckets[key]
	for i, have := range bucket {
		if have == e {
			c.buckets[key] = append(bucket[:i], bucket[i+1:]...)
			c.size--
			return
		}
	}
}

func (c *irCache) stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
