// Package db implements in-memory database instances for the resilience
// problem: named relations of fixed-arity tuples over an interned constant
// domain, with positional indexes to support join evaluation.
//
// Tuples are small comparable structs (arity capped at MaxArity = 4) so
// they can be used directly as map keys and set elements, which the
// hitting-set solver and the IJP checker rely on heavily.
//
// # Key invariants
//
//   - Interning: constants are mapped to dense Value ids by Const; a name
//     always interns to the same Value within one Database, and ConstName
//     inverts the mapping. Values are NOT comparable across databases.
//   - Identity and versioning: every Database carries a process-unique UID
//     and a Version counter bumped by every tuple mutation (Add, Remove,
//     Delete, RestoreTo — including mutations that are later undone). An
//     unchanged (UID, Version) pair therefore guarantees unchanged
//     contents, which is what the engine's cross-request witness-IR cache
//     keys on. Clone returns a copy with a fresh UID.
//   - Concurrency: mutations require exclusive access. Any number of
//     goroutines may read concurrently, including Lookup: the lazy
//     per-relation index build is double-checked under a mutex and
//     published through an atomic ready flag. Freeze performs every
//     pending build eagerly so a read-only shared database never
//     contends at all. Clone is a read: it makes no plain writes to its
//     source, so any number of goroutines may clone one database while
//     others read it, and the clones may be mutated meanwhile.
//   - Copy-on-write versions: a Database is built from cow.Maps — each
//     relation's tuple set and positional indexes, and the constant
//     interner — plus the append-only constant names. Clone shares all
//     of it: it copies each map's page table (O(∛n) for n entries) and
//     marks the pages shared, and shares the names with their capacity
//     clamped. Who copies what: the first write to a shared page or part,
//     by the source or by any clone, copies that page or part alone (the
//     first write to a map that was never split splits it, once, at
//     O(n)); the first new constant of either side copies the names. A
//     clone-then-mutate lineage therefore pays O(∛n + batch) per version.
//   - Index maintenance and bucket sharing: once a relation's index is
//     built, Add/Remove (and Delete/RestoreTo) patch the changed tuple's
//     buckets instead of invalidating the index, and Clone carries it.
//     Bucket slices are shared between a relation and its clones, so no
//     bucket is ever written where another relation can see it: a bucket
//     carried out of a shared part of the index has its capacity clamped
//     to its length when the part is copied, so the next append to it
//     reallocates, and a removal always builds a fresh bucket. An append
//     may still grow an owned bucket in place, so appends stay amortized
//     O(1). A clone and its source may therefore be mutated and read
//     independently — a clone's mutations never change what its source's
//     Lookup returns, and vice versa. A run of removals whose bucket
//     copies would outweigh one rebuild drops the index instead, for the
//     next reader to rebuild.
//   - Restore stack: Delete records removed tuples so RestoreTo(mark) can
//     undo them in LIFO order; solvers that probe deletions (flow
//     variants, VerifyContingency) always restore before returning.
package db
