// Package witset is the witness-hypergraph intermediate representation
// shared by every NP-side resilience solver.
//
// The paper reduces resilience ρ(q, D) to minimum hitting set over the
// per-witness sets of endogenous tuples (Definition 1). Every consumer of
// that reduction — the exact branch-and-bound, the CNF/SAT oracle, the
// minimum-contingency enumerator, responsibility, and the engine's solver
// portfolio — needs the same object: the witness family with tuples
// interned into a dense id universe. This package builds that object
// exactly once per (query, database) instance and caches the derived
// facts (unbreakability, the normalized bitset family with occurrence
// lists) so concurrent solvers can share it, and the engine's
// cross-request IR cache can share it across requests.
//
// # Key invariants
//
//   - An Instance is immutable after Build: Tuples(), Rows() and the
//     derived families are shared by every consumer and must be treated
//     as read-only. The lazily derived families are sync.Once-guarded,
//     so any number of goroutines may request them concurrently.
//   - Ids are dense: the interned universe is exactly the endogenous
//     tuples occurring in some witness, numbered 0..NumTuples()-1, which
//     is what makes bitset rows and id-indexed occurrence lists possible.
//   - Unbreakable() implies Rows() is partial: enumeration stops at the
//     first witness with no endogenous tuples, because no deletion set
//     can falsify the query from then on.
//   - Build is the single place the database is read; it freezes d's
//     relation indexes up front, so sharing the instance never contends
//     on lazy index rebuilds.
//   - Build is deterministic regardless of parallelism: BuildWith may
//     shard the enumeration across workers, but the merge reproduces
//     the sequential tuple ids, row contents and row order byte for
//     byte (DESIGN.md §12), which ApplyDelta's stable ids rely on.
//   - Family(false) preserves the hitting-set optimum: rows are deduped
//     and superset-eliminated only (hitting a subset always hits its
//     supersets), and rows are ordered by increasing size so the first
//     unhit row is always a smallest one.
//   - Deletion costs live in Family.W, nil meaning unit cost: an
//     instance derived with WithWeights carries them into every family,
//     kernel and component it derives, and every consumer (the
//     branch-and-bound, GreedyHittingSet, the SAT counter) reads them
//     from there. The weighted view re-costs its base instance's
//     component split rather than decomposing again. ComponentKey
//     fingerprints cover the costs on a weighted instance only, so
//     unweighted keys are unchanged and never equal a weighted one; a
//     view component's key adds the costs to the memoized key of the
//     unweighted component it re-costs.
//
// # The kernel+decompose pipeline
//
// On top of the family, the package provides the instance-level
// preprocessing every NP-side solver runs before exponential search
// (DESIGN.md §7):
//
//   - Kernelize / Instance.Kernel applies unit-row forcing (a singleton
//     witness's tuple is in every hitting set) and dominated-tuple
//     elimination (an element whose rows are covered by a co-occurring
//     element can be dropped) to fixpoint. It preserves ρ and one optimum;
//     domination does not preserve the full set of optima, so all-optima
//     consumers use Decompose alone.
//   - Decompose / Instance.Components splits a family into the connected
//     components of its row-intersection graph, each over a dense local
//     universe with a Global remap. Components share no elements, so
//     component minima add: ρ(F) = Σ ρ(C), and the minimum hitting sets
//     of F are exactly the unions of per-component minimum sets.
//
// Both halves are computed once and cached on the Instance, so solvers
// sharing a cached IR also share its kernel and component split. A delta
// (ApplyDelta) carries the base's component split and fingerprints to the
// new instance, re-decomposing only the components the batch touched.
package witset
