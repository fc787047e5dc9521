package db

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cow"
)

// Value is an interned constant of the active domain.
type Value int32

// MaxArity is the largest supported relation arity. The paper's queries are
// unary/binary plus one ternary relation (W in the tripod query), all within
// this cap.
const MaxArity = 4

// Tuple is a single fact R(a1,...,ak). It is comparable and therefore
// usable as a map key.
type Tuple struct {
	Rel   string
	Arity uint8
	Args  [MaxArity]Value
}

// NewTuple builds a tuple for relation rel with the given arguments.
func NewTuple(rel string, args ...Value) Tuple {
	if len(args) == 0 || len(args) > MaxArity {
		panic(fmt.Sprintf("db: tuple arity %d out of range [1,%d]", len(args), MaxArity))
	}
	t := Tuple{Rel: rel, Arity: uint8(len(args))}
	copy(t.Args[:], args)
	return t
}

// Values returns the argument slice of t (length = arity).
func (t Tuple) Values() []Value { return t.Args[:t.Arity] }

// Hash returns a hash of t's arguments, spread over all 64 bits, for
// maps split by key hash (cow.Map). Tuples of different relations with
// equal arguments hash alike, which only places them in the same part.
func (t Tuple) Hash() uint64 { return hashArgs(t.Args) }

func hashArgs(a [MaxArity]Value) uint64 {
	lo := uint64(uint32(a[0])) | uint64(uint32(a[1]))<<32
	hi := uint64(uint32(a[2])) | uint64(uint32(a[3]))<<32
	return cow.Mix(lo ^ cow.Mix(hi))
}

func hashValue(v Value) uint64 { return cow.Mix(uint64(uint32(v))) }

// nameSeed seeds the interner's string hash. One seed serves every
// database in the process, so a clone's parts hash alike to its source's.
var nameSeed = maphash.MakeSeed()

func hashName(s string) uint64 { return maphash.String(nameSeed, s) }

// clampBucket is the index's share function: a bucket carried out of a
// shared part gets its capacity clamped, so the next append to it
// reallocates instead of writing where another relation can see.
func clampBucket(b []Tuple) []Tuple { return b[:len(b):len(b)] }

// ConstSet returns the set of distinct constants appearing in t.
func (t Tuple) ConstSet() map[Value]bool {
	s := make(map[Value]bool, t.Arity)
	for _, v := range t.Values() {
		s[v] = true
	}
	return s
}

// Relation is a set of same-arity tuples with per-position indexes.
//
// Concurrency: mutations (add/remove, reached via Database.Add / Delete /
// RestoreTo) require exclusive access, but any number of goroutines may
// read — including Lookup, whose lazy index build is serialized by mu and
// published through the ready flag, so concurrent readers of an unindexed
// relation are safe — and clone it. Database.Freeze performs every
// pending build eagerly, making a subsequently read-only database
// contention-free.
//
// Storage is copy-on-write: the tuple set and each position's index map
// are cow.Maps, which clone shares with the copy, and a write after a
// clone copies only the part of a map it lands in (see package cow). Once
// built, the index is kept current by add and remove, which patch only
// the buckets of the changed tuple, and clone carries it. Buckets are
// shared too, so no bucket is ever written where another relation can see
// it: a bucket carried out of a shared part has its capacity clamped (its
// next append reallocates), and remove always builds a fresh bucket.
type Relation struct {
	Name  string
	Arity int

	// tuples holds the relation's tuples by their arguments: Name and
	// Arity are the same for all of them.
	tuples cow.Map[[MaxArity]Value, struct{}]
	// index[p] maps v to the tuples whose p-th argument is v, in no
	// particular order. ready reports whether index matches tuples, and mu
	// serializes the lazy build. ready.Store(true) after the index writes
	// gives readers that observe ready the happens-before edge they need.
	index [MaxArity]cow.Map[Value, []Tuple]
	ready atomic.Bool
	mu    sync.Mutex
	// patched counts the bucket entries copied by removals since the index
	// was built or cloned; see unindex.
	patched int
}

func newRelation(name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity, tuples: cow.New[[MaxArity]Value, struct{}](0, hashArgs, nil)}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.tuples.Len() }

// Has reports membership.
func (r *Relation) Has(t Tuple) bool {
	return t.Rel == r.Name && int(t.Arity) == r.Arity && r.tuples.Has(t.Args)
}

// tuple returns the tuple of r with the given arguments.
func (r *Relation) tuple(args [MaxArity]Value) Tuple {
	return Tuple{Rel: r.Name, Arity: uint8(r.Arity), Args: args}
}

// Tuples returns all tuples in deterministic (sorted) order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.tuples.Len())
	r.tuples.Range(func(args [MaxArity]Value, _ struct{}) { out = append(out, r.tuple(args)) })
	SortTuples(out)
	return out
}

func (r *Relation) add(t Tuple) bool {
	if r.tuples.Has(t.Args) {
		return false
	}
	r.tuples.Set(t.Args, struct{}{})
	if r.ready.Load() {
		for p := 0; p < r.Arity; p++ {
			// A bucket carried out of a shared part is clamped and
			// reallocates here; an owned one grows in place.
			b, _ := r.index[p].GetOwned(t.Args[p])
			r.index[p].Set(t.Args[p], append(b, t))
		}
	}
	return true
}

func (r *Relation) remove(t Tuple) bool {
	if !r.tuples.Delete(t.Args) {
		return false
	}
	if r.ready.Load() {
		r.unindex(t)
	}
	return true
}

// unindex drops t from its buckets. A bucket may be shared with a clone,
// so the survivors are copied into a fresh bucket instead of shifted in
// place. Removing from large buckets one tuple at a time would then cost
// more than one rebuild of the whole index, so once the copies since the
// last build exceed the relation's size (plus a small allowance, so tiny
// relations keep patching) the index is dropped and rebuilt lazily by the
// next reader.
func (r *Relation) unindex(t Tuple) {
	for p := 0; p < r.Arity; p++ {
		b, _ := r.index[p].Get(t.Args[p])
		r.patched += len(b)
	}
	if r.patched > r.tuples.Len()+64 {
		r.ready.Store(false)
		r.index = [MaxArity]cow.Map[Value, []Tuple]{}
		return
	}
	for p := 0; p < r.Arity; p++ {
		v := t.Args[p]
		b, _ := r.index[p].Get(v)
		if len(b) == 1 {
			r.index[p].Delete(v)
			continue
		}
		i := slices.Index(b, t)
		nb := make([]Tuple, 0, len(b)-1)
		nb = append(nb, b[:i]...)
		r.index[p].Set(v, append(nb, b[i+1:]...))
	}
}

func (r *Relation) rebuild() {
	if r.ready.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ready.Load() {
		return
	}
	// Collect the buckets in plain maps, which the cow.Maps then take
	// over as they are.
	var idx [MaxArity]map[Value][]Tuple
	for p := 0; p < r.Arity; p++ {
		idx[p] = make(map[Value][]Tuple, r.tuples.Len())
	}
	r.tuples.Range(func(args [MaxArity]Value, _ struct{}) {
		t := r.tuple(args)
		for p := 0; p < r.Arity; p++ {
			idx[p][args[p]] = append(idx[p][args[p]], t)
		}
	})
	for p := 0; p < r.Arity; p++ {
		r.index[p] = cow.From(idx[p], hashValue, clampBucket)
	}
	r.patched = 0
	r.ready.Store(true)
}

// clone returns a copy of r sharing its tuple set and, when the index is
// built, its index (see Relation). It writes nothing of r's but the
// atomic marks that tell later writers what is shared.
func (r *Relation) clone() *Relation {
	c := &Relation{Name: r.Name, Arity: r.Arity, tuples: r.tuples.Clone()}
	if !r.ready.Load() {
		return c
	}
	for p := 0; p < r.Arity; p++ {
		c.index[p] = r.index[p].Clone()
	}
	c.ready.Store(true)
	return c
}

// Lookup returns the tuples whose p-th argument equals v.
func (r *Relation) Lookup(p int, v Value) []Tuple {
	r.rebuild()
	b, _ := r.index[p].Get(v)
	return b
}

// DistinctAt returns the number of distinct values occurring at argument
// position p, i.e. the number of index buckets there. Len()/DistinctAt(p)
// is the average fanout of a position-p probe — the selectivity statistic
// the cost-based join planner uses. Like Lookup it materialises the index.
func (r *Relation) DistinctAt(p int) int {
	r.rebuild()
	return r.index[p].Len()
}

// Database is a set of relations plus a string-to-constant interner.
// The zero value is not usable; call New.
type Database struct {
	rels map[string]*Relation
	// names lists the constants by Value; consts inverts it. A clone
	// shares names with its capacity clamped, so either side's next
	// append reallocates or writes past what the other can see.
	names  []string
	consts cow.Map[string, Value]

	// uid identifies this Database object for the lifetime of the process;
	// version counts the tuple mutations applied to it. Together they key
	// caches of facts derived from the contents (the engine's witness-IR
	// cache): any mutation — including a Delete later undone by RestoreTo —
	// bumps version, so derived facts are conservatively invalidated.
	uid     uint64
	version uint64

	// deleted tracks tuples temporarily removed by the solvers so they can
	// be restored cheaply; see Delete/Restore.
	deleted []Tuple
}

// nextUID hands out process-unique database identities.
var nextUID atomic.Uint64

// New returns an empty database.
func New() *Database {
	return &Database{
		rels:   map[string]*Relation{},
		consts: cow.New[string, Value](0, hashName, nil),
		uid:    nextUID.Add(1),
	}
}

// UID returns the process-unique identity of this Database object. A Clone
// gets a fresh UID: caches keyed by (UID, Version) never confuse a copy
// with its original.
func (d *Database) UID() uint64 { return d.uid }

// Version returns the number of tuple mutations applied to d so far. It is
// monotonically increasing; a Database whose (UID, Version) pair matches an
// earlier observation is guaranteed to hold the same tuples. Reads (index
// rebuilds, Freeze) do not change the version.
func (d *Database) Version() uint64 { return d.version }

// SetVersion overrides the mutation counter. It exists for durable-state
// recovery, which rebuilds a registered database from persisted facts
// (each insertion bumping the counter from zero) and must then resume
// the persisted version lineage that watchers and version-keyed clients
// observe; nothing else should call it.
func (d *Database) SetVersion(v uint64) { d.version = v }

// Const interns the constant with the given name.
func (d *Database) Const(name string) Value {
	if v, ok := d.consts.Get(name); ok {
		return v
	}
	v := Value(len(d.names))
	d.names = append(d.names, name)
	d.consts.Set(name, v)
	return v
}

// LookupConst returns the interned value of the constant with the given
// name, if any. Unlike Const it never interns: it is the read-only lookup
// for code probing a shared database it must not mutate (e.g. the serving
// layer resolving tuples named in a request).
func (d *Database) LookupConst(name string) (Value, bool) {
	return d.consts.Get(name)
}

// ConstName returns the display name of v.
func (d *Database) ConstName(v Value) string {
	if int(v) < 0 || int(v) >= len(d.names) {
		return fmt.Sprintf("#%d", int(v))
	}
	return d.names[v]
}

// NumConsts returns the size of the active domain seen so far.
func (d *Database) NumConsts() int { return len(d.names) }

// Relation returns the relation named rel, creating it with the given arity
// on first use. It panics on arity mismatch with an existing relation.
func (d *Database) Relation(rel string, arity int) *Relation {
	r, ok := d.rels[rel]
	if !ok {
		r = newRelation(rel, arity)
		d.rels[rel] = r
		return r
	}
	if r.Arity != arity {
		panic(fmt.Sprintf("db: relation %s has arity %d, not %d", rel, r.Arity, arity))
	}
	return r
}

// Rel returns the relation named rel or nil if absent.
func (d *Database) Rel(rel string) *Relation { return d.rels[rel] }

// Add inserts the fact rel(args...) using interned values.
func (d *Database) Add(rel string, args ...Value) Tuple {
	t := NewTuple(rel, args...)
	if d.Relation(rel, len(args)).add(t) {
		d.version++
	}
	return t
}

// AddNames inserts the fact rel(names...) interning each constant name.
func (d *Database) AddNames(rel string, names ...string) Tuple {
	args := make([]Value, len(names))
	for i, n := range names {
		args[i] = d.Const(n)
	}
	return d.Add(rel, args...)
}

// AddTuple inserts an existing tuple value.
func (d *Database) AddTuple(t Tuple) {
	if d.Relation(t.Rel, int(t.Arity)).add(t) {
		d.version++
	}
}

// Has reports whether the fact is present.
func (d *Database) Has(t Tuple) bool {
	r := d.rels[t.Rel]
	return r != nil && r.Has(t)
}

// Remove deletes the fact if present.
func (d *Database) Remove(t Tuple) {
	if r := d.rels[t.Rel]; r != nil && r.remove(t) {
		d.version++
	}
}

// Delete removes t and records it on the restore stack.
func (d *Database) Delete(t Tuple) {
	if d.Has(t) {
		d.Remove(t)
		d.deleted = append(d.deleted, t)
	}
}

// RestoreMark returns the current height of the restore stack.
func (d *Database) RestoreMark() int { return len(d.deleted) }

// RestoreTo undoes all Delete calls made after the given mark.
func (d *Database) RestoreTo(mark int) {
	for len(d.deleted) > mark {
		t := d.deleted[len(d.deleted)-1]
		d.deleted = d.deleted[:len(d.deleted)-1]
		d.AddTuple(t)
	}
}

// Freeze eagerly builds every relation's positional indexes that are not
// built yet. Lazy builds are individually safe for concurrent readers, but
// a caller about to share d read-only across goroutines (the engine's
// solver portfolio, witness enumeration for a shared IR) can Freeze first
// so no reader ever contends on a build. Mutating d afterwards is allowed:
// the mutation patches the built indexes.
func (d *Database) Freeze() {
	for _, r := range d.rels {
		r.rebuild()
	}
}

// Len returns the total number of tuples across all relations.
func (d *Database) Len() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}

// RelationNames returns the relation names in sorted order.
func (d *Database) RelationNames() []string {
	out := make([]string, 0, len(d.rels))
	for n := range d.rels {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// AllTuples returns every tuple in the database in deterministic order.
func (d *Database) AllTuples() []Tuple {
	var out []Tuple
	for _, n := range d.RelationNames() {
		out = append(out, d.rels[n].Tuples()...)
	}
	return out
}

// Clone returns a copy of d that later mutations of either side do not
// affect. The copy keeps d's version (so a mutation lineage built by
// clone-then-mutate has monotonically increasing versions, which the
// watch surface relies on) but gets a fresh identity (UID), so cache keys
// never conflate the two.
//
// The copy shares d's storage instead of copying it. Every relation's
// tuple set and built index, and the constant interner, are cow.Maps,
// which both sides share until one of them writes: a write copies only
// the page and part of the map it lands in, about ∛n entries each for a
// map of n, and the first write to a map that was never split splits it
// first, once, at O(n). The constant names are shared with their capacity
// clamped, so the copy's first new constant copies them. Clone itself
// costs O(∛n) per relation map and the interner, so a clone-then-mutate
// lineage (the serving layer's live updates) pays O(∛n + batch) per
// version. Built indexes are carried, so neither side rebuilds one after
// the other is mutated (see Relation).
//
// Clone makes no plain writes to d: any number of goroutines may clone,
// and read, one database at the same time, and its clones may be mutated
// while d is read or cloned again. The restore stack is not copied.
func (d *Database) Clone() *Database {
	c := &Database{
		rels:    make(map[string]*Relation, len(d.rels)),
		names:   d.names[:len(d.names):len(d.names)],
		consts:  d.consts.Clone(),
		uid:     nextUID.Add(1),
		version: d.version,
	}
	for name, r := range d.rels {
		c.rels[name] = r.clone()
	}
	return c
}

// TupleString renders a tuple with constant names resolved.
func (d *Database) TupleString(t Tuple) string {
	parts := make([]string, t.Arity)
	for i, v := range t.Values() {
		parts[i] = d.ConstName(v)
	}
	return t.Rel + "(" + strings.Join(parts, ",") + ")"
}

// String renders the whole database, one relation per line.
func (d *Database) String() string {
	var b strings.Builder
	for _, n := range d.RelationNames() {
		b.WriteString(n)
		b.WriteString(" = {")
		for i, t := range d.rels[n].Tuples() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(d.TupleString(t))
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// SortTuples sorts ts in place by relation name, then lexicographically by
// arguments.
func SortTuples(ts []Tuple) {
	slices.SortFunc(ts, CompareTuples)
}

// CompareTuples gives a total order over tuples.
func CompareTuples(a, b Tuple) int {
	if a.Rel != b.Rel {
		if a.Rel < b.Rel {
			return -1
		}
		return 1
	}
	if a.Arity != b.Arity {
		return int(a.Arity) - int(b.Arity)
	}
	for i := 0; i < int(a.Arity); i++ {
		if a.Args[i] != b.Args[i] {
			return int(a.Args[i]) - int(b.Args[i])
		}
	}
	return 0
}
