// Package cow provides Map, a hash map whose copies share storage until
// they are written.
//
// A Map is split by key hash into sub-maps ("parts"), and its table of
// parts is split in turn into pages. The shape follows the map's own
// size: a map of n entries at level L = ⌊log₈ n⌋ has 2^L pages of 2^L
// parts each, so the page table, each page and each part hold about
// ∛n entries (parts between 2^L and 8·2^L).
//
// A map is split when the split pays: a map that is never cloned stays as
// it was built, one plain map, and costs no more to fill and read than
// one. The first write to a map after a Clone re-splits it to the level
// its size calls for, and so does any later first write after a Clone
// that finds it grown past its level. A re-split costs O(n) and leaves
// nothing shared; it never lowers the level.
//
// Clone copies only the page table and marks every page shared. The
// first write through a shared page copies that page (marking its parts
// shared), and the first write to a shared part copies that part alone.
// Once split, a map therefore clones in O(∛n), and each write after a
// clone costs O(∛n) at most once per page and part it lands in.
//
// Concurrency: a write needs exclusive access to the Map it writes. Any
// number of goroutines may read a Map and Clone it at the same time, and
// may go on reading it while its clones are written: Clone makes no plain
// writes to its source (it marks pages shared with atomic stores), and a
// page or part, once shared, is never written again by anyone.
package cow

import (
	"slices"
	"sync/atomic"
)

// Map is a map from K to V split into parts by the hash function it was
// made with. The zero Map is not usable; call New or From.
type Map[K comparable, V any] struct {
	pages []*page[K, V]
	// level is L of the shape: 2^L pages of 2^L parts. A key with hash h
	// lives in pages[h>>pageShift].parts[(h>>partShift)&partMask]; at
	// level 0 every key lives in the one part, and no hash is computed.
	level                uint
	pageShift, partShift uint
	partMask             uint64
	n                    int
	hash                 func(K) uint64
	// share, when non-nil, is applied to each value a write carries over
	// from a shared part into an owned one (see New).
	share func(V) V
}

type page[K comparable, V any] struct {
	parts  []*part[K, V]
	shared atomic.Bool
}

type part[K comparable, V any] struct {
	m      map[K]V
	shared atomic.Bool
}

// New returns an empty map with room for about hint entries. hash must
// spread keys over its high bits, which select the page and the part.
//
// share, when non-nil, is applied to every value that a write copies out
// of a shared part: a value that refers to further storage (a slice) is
// still shared after its part is copied, and share makes it safe to
// extend in place, e.g. by clamping a slice's capacity to its length.
// Values read with GetOwned are taken from owned parts only, so they have
// passed through share whenever they came from a shared part.
func New[K comparable, V any](hint int, hash func(K) uint64, share func(V) V) Map[K, V] {
	return From(make(map[K]V, hint), hash, share)
}

// From returns a Map holding the entries of src, which it takes over:
// src becomes the map's one part, and the caller must not write it again.
func From[K comparable, V any](src map[K]V, hash func(K) uint64, share func(V) V) Map[K, V] {
	m := Map[K, V]{hash: hash, share: share, n: len(src)}
	m.shape(0)
	m.pages = []*page[K, V]{{parts: []*part[K, V]{{m: src}}}}
	return m
}

// levelFor returns the level of the shape for n entries, ⌊log₈ n⌋.
func levelFor(n int) uint {
	l := uint(0)
	for n >= 1<<(3*(l+1)) {
		l++
	}
	return l
}

// shape sets the level and the shifts that select pages and parts.
func (m *Map[K, V]) shape(l uint) {
	m.level = l
	m.pageShift, m.partShift = 64-l, 64-2*l
	m.partMask = 1<<l - 1
}

// slot returns the map of k's part, for reading.
func (m *Map[K, V]) slot(k K) map[K]V {
	if m.level == 0 {
		return m.pages[0].parts[0].m
	}
	h := m.hash(k)
	return m.pages[h>>m.pageShift].parts[(h>>m.partShift)&m.partMask].m
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return m.n }

// Get returns the value of k and whether k is present.
func (m *Map[K, V]) Get(k K) (V, bool) {
	v, ok := m.slot(k)[k]
	return v, ok
}

// Has reports whether k is present.
func (m *Map[K, V]) Has(k K) bool {
	_, ok := m.slot(k)[k]
	return ok
}

// GetOwned is Get for a caller about to write k: it first copies k's
// page and part if they are shared, so the value returned never comes
// from a shared part (see New for what that guarantees).
func (m *Map[K, V]) GetOwned(k K) (V, bool) {
	v, ok := m.own(k)[k]
	return v, ok
}

// Set maps k to v.
func (m *Map[K, V]) Set(k K, v V) {
	p := m.own(k)
	n := len(p)
	p[k] = v
	m.n += len(p) - n
}

// Delete removes k and reports whether it was present. Deleting an absent
// key copies nothing.
func (m *Map[K, V]) Delete(k K) bool {
	if _, ok := m.slot(k)[k]; !ok {
		return false
	}
	delete(m.own(k), k)
	m.n--
	return true
}

// Range calls f on every entry, in no particular order. f must not write
// to m.
func (m *Map[K, V]) Range(f func(K, V)) {
	for _, pg := range m.pages {
		for _, pt := range pg.parts {
			for k, v := range pt.m {
				f(k, v)
			}
		}
	}
}

// Clone returns a copy of m that shares every page with it. It costs one
// pointer per page and writes nothing of m's but the pages' atomic shared
// marks, so concurrent Clones and reads of m are safe.
func (m *Map[K, V]) Clone() Map[K, V] {
	for _, pg := range m.pages {
		markShared(&pg.shared)
	}
	c := *m
	c.pages = slices.Clone(m.pages)
	return c
}

func markShared(b *atomic.Bool) {
	if !b.Load() {
		b.Store(true)
	}
}

// own returns the map of k's part for writing. A shared page is first
// re-split away if the map has outgrown its level, and copied otherwise;
// a copied page's parts become reachable from two pages, so they are
// marked shared before the copy. Then a shared part is copied.
func (m *Map[K, V]) own(k K) map[K]V {
	var h uint64
	if m.level > 0 {
		h = m.hash(k)
	}
	pi := h >> m.pageShift
	pg := m.pages[pi]
	if pg.shared.Load() {
		if l := levelFor(m.n); l > m.level {
			m.resplit(l)
			return m.own(k)
		}
		for _, pt := range pg.parts {
			markShared(&pt.shared)
		}
		pg = &page[K, V]{parts: slices.Clone(pg.parts)}
		m.pages[pi] = pg
	}
	qi := (h >> m.partShift) & m.partMask
	pt := pg.parts[qi]
	if !pt.shared.Load() {
		return pt.m
	}
	c := make(map[K]V, len(pt.m)+1)
	for k, v := range pt.m {
		if m.share != nil {
			v = m.share(v)
		}
		c[k] = v
	}
	pg.parts[qi] = &part[K, V]{m: c}
	return c
}

// resplit moves the entries into fresh pages and parts at level l, so
// nothing is shared afterwards.
func (m *Map[K, V]) resplit(l uint) {
	old := m.pages
	m.shape(l)
	m.pages = make([]*page[K, V], 1<<l)
	for i := range m.pages {
		pg := &page[K, V]{parts: make([]*part[K, V], 1<<l)}
		for j := range pg.parts {
			pg.parts[j] = &part[K, V]{m: make(map[K]V, m.n>>(2*l))}
		}
		m.pages[i] = pg
	}
	for _, pg := range old {
		for _, pt := range pg.parts {
			share := m.share != nil && (pg.shared.Load() || pt.shared.Load())
			for k, v := range pt.m {
				if share {
					v = m.share(v)
				}
				h := m.hash(k)
				m.pages[h>>m.pageShift].parts[(h>>m.partShift)&m.partMask].m[k] = v
			}
		}
	}
}

// Mix scrambles x (the splitmix64 finalizer), so that hashes built from
// small integers such as interned ids spread over all 64 bits.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
