package db

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
// relation are safe. Database.Freeze performs every pending build
// eagerly, making a subsequently read-only database contention-free.
//
// Maintenance: once built, the index is kept current by add and remove,
// which patch only the buckets of the changed tuple, and Clone carries it
// to the copy. Buckets are shared between a relation and its clones, so
// no bucket is ever written where another relation can see it: a clone's
// buckets have their capacity clamped (its first append reallocates), and
// remove always builds a fresh bucket.
type Relation struct {
	Name  string
	Arity int

	tuples map[Tuple]bool
	// index[p][v] lists tuples whose p-th argument is v, in no particular
	// order. ready reports whether index matches tuples, and mu serializes
	// the lazy build. ready.Store(true) after the index writes gives readers
	// that observe ready the happens-before edge they need.
	index [MaxArity]map[Value][]Tuple
	ready atomic.Bool
	mu    sync.Mutex
	// patched counts the bucket entries copied by removals since the index
	// was built or cloned; see unindex.
	patched int
}

func newRelation(name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity, tuples: map[Tuple]bool{}}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Has reports membership.
func (r *Relation) Has(t Tuple) bool { return r.tuples[t] }

// Tuples returns all tuples in deterministic (sorted) order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, len(r.tuples))
	for t := range r.tuples {
		out = append(out, t)
	}
	SortTuples(out)
	return out
}

func (r *Relation) add(t Tuple) bool {
	if r.tuples[t] {
		return false
	}
	r.tuples[t] = true
	if r.ready.Load() {
		for p := 0; p < r.Arity; p++ {
			// A clamped (shared) bucket reallocates here; an owned one
			// grows in place, past the length any clone was given.
			r.index[p][t.Args[p]] = append(r.index[p][t.Args[p]], t)
		}
	}
	return true
}

func (r *Relation) remove(t Tuple) bool {
	if !r.tuples[t] {
		return false
	}
	delete(r.tuples, t)
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
		r.patched += len(r.index[p][t.Args[p]])
	}
	if r.patched > len(r.tuples)+64 {
		r.ready.Store(false)
		r.index = [MaxArity]map[Value][]Tuple{}
		return
	}
	for p := 0; p < r.Arity; p++ {
		v := t.Args[p]
		b := r.index[p][v]
		i := slices.Index(b, t)
		if len(b) == 1 {
			delete(r.index[p], v)
			continue
		}
		nb := make([]Tuple, 0, len(b)-1)
		nb = append(nb, b[:i]...)
		r.index[p][v] = append(nb, b[i+1:]...)
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
	for p := 0; p < r.Arity; p++ {
		r.index[p] = make(map[Value][]Tuple, len(r.tuples))
	}
	for t := range r.tuples {
		for p := 0; p < r.Arity; p++ {
			r.index[p][t.Args[p]] = append(r.index[p][t.Args[p]], t)
		}
	}
	r.patched = 0
	r.ready.Store(true)
}

// clone returns a copy of r that carries r's index when it is built,
// sharing every bucket with its capacity clamped.
func (r *Relation) clone() *Relation {
	c := &Relation{Name: r.Name, Arity: r.Arity, tuples: maps.Clone(r.tuples)}
	if !r.ready.Load() {
		return c
	}
	for p := 0; p < r.Arity; p++ {
		m := maps.Clone(r.index[p])
		for v, b := range m {
			if cap(b) != len(b) {
				m[v] = b[:len(b):len(b)]
			}
		}
		c.index[p] = m
	}
	c.ready.Store(true)
	return c
}

// Lookup returns the tuples whose p-th argument equals v.
func (r *Relation) Lookup(p int, v Value) []Tuple {
	r.rebuild()
	return r.index[p][v]
}

// DistinctAt returns the number of distinct values occurring at argument
// position p, i.e. the number of index buckets there. Len()/DistinctAt(p)
// is the average fanout of a position-p probe — the selectivity statistic
// the cost-based join planner uses. Like Lookup it materialises the index.
func (r *Relation) DistinctAt(p int) int {
	r.rebuild()
	return len(r.index[p])
}

// Database is a set of relations plus a string-to-constant interner.
// The zero value is not usable; call New.
type Database struct {
	rels  map[string]*Relation
	names []string
	index map[string]Value

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
		rels:  map[string]*Relation{},
		index: map[string]Value{},
		uid:   nextUID.Add(1),
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
	if v, ok := d.index[name]; ok {
		return v
	}
	v := Value(len(d.names))
	d.names = append(d.names, name)
	d.index[name] = v
	return v
}

// LookupConst returns the interned value of the constant with the given
// name, if any. Unlike Const it never interns: it is the read-only lookup
// for code probing a shared database it must not mutate (e.g. the serving
// layer resolving tuples named in a request).
func (d *Database) LookupConst(name string) (Value, bool) {
	v, ok := d.index[name]
	return v, ok
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

// Clone returns a copy sharing no mutable state with d. The copy keeps
// d's version (so a mutation lineage built by clone-then-mutate has
// monotonically increasing versions, which the watch surface relies on)
// but gets a fresh identity (UID), so cache keys never conflate the two.
// Built relation indexes are carried over, so neither the copy nor d
// rebuilds one after the other is mutated (see Relation).
func (d *Database) Clone() *Database {
	c := New()
	c.version = d.version
	c.names = slices.Clone(d.names)
	c.index = maps.Clone(d.index)
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
