// Package engine is the concurrent solving service over the paper's
// resilience machinery: where repro.Resilience answers one (query,
// database) question at a time, the engine shards large batches across a
// worker pool, memoizes query classification across instances, enforces
// per-instance timeouts, attacks NP-hard instances with a portfolio that
// races the exact branch-and-bound against SAT binary search, and — under
// NoClone — shares witness-hypergraph IRs across requests through a
// versioned cache.
//
// It is the scaffolding for scaling this reproduction into a service: the
// HTTP serving layer (internal/server) runs one long-lived Engine and
// plugs every request into Solve/SolveOne/SolveBatch rather than into the
// individual solvers.
//
// # Key invariants
//
//   - Caches only ever return equivalent answers: the classification
//     cache is keyed by query structure up to isomorphism (a hit on a
//     renamed vocabulary is translated back onto the request's relation
//     names), and the IR cache additionally requires identical relation
//     names and an identical (database UID, version) pair, because an IR
//     holds concrete tuples of a concrete database state.
//   - Enumerate-once: an exact-path component performs at most one
//     witness enumeration — one IR build per portfolio race, shared by
//     both racers, and at most one build per (query class, database
//     version) across requests when NoClone enables the IR cache
//     (Stats.IRBuilds counts actual builds; TestPortfolioBuildsIROnce
//     and TestIRCacheSharedAcrossRequests pin this).
//   - Caller databases are never mutated: with cloning on, every
//     instance solves against a private copy; under NoClone, the one
//     PTIME solver that temporarily deletes tuples (AlgPerm3Flow) gets a
//     private clone and everything else reads only.
//   - One pipeline for both cost models: SolveWeightedInstance runs the
//     same kernel, race and (under NoClone) component cache as the
//     cardinality path on a weighted instance, whose component
//     fingerprints cover the costs, so weighted and unweighted answers
//     never share a cache entry; a full cache evicts weighted entries
//     first, so weighted traffic does not push out unweighted ones.
//   - The SAT racer never builds a counter of more than
//     cnfenc.MaxRegisters registers; over it, the race leaves the
//     component to the branch-and-bound.
//   - Cancellation is prompt and partial results survive: SolveBatch
//     always returns a full-length, index-aligned slice; instances
//     finished before ctx was cancelled keep their results, the rest
//     fail fast with ctx.Err().
package engine
