// Package cnfenc encodes the resilience decision problem RES(q, D, k)
// (Definition 1) as CNF satisfiability, giving a second, independently
// implemented oracle against which the branch-and-bound exact solver is
// cross-checked.
//
// The encoding is the textbook one for bounded hitting set: a Boolean
// variable per candidate endogenous tuple ("delete this tuple"), one
// clause per witness requiring at least one of its tuples deleted, and a
// Sinz sequential-counter circuit enforcing that at most k tuples are
// deleted. The resulting formula is satisfiable iff (D, k) ∈ RES(q), and
// any model projects to a verified contingency set of size ≤ k. The
// incremental counter (IncrementalSolver) also bounds total deletion
// cost when the family carries per-tuple costs (witset.Family.W, nil
// meaning unit cost): one encoding serves both cost models.
//
// # Key invariants
//
//   - Everything is built from the witness-hypergraph IR
//     (witset.Instance): witness clauses are the IR's rows verbatim and
//     CNF variables 1..NumTuples() are the IR's tuple ids shifted by
//     one, so Gamma can project any model back to concrete tuples.
//   - Encoder renders the witness clauses once per instance; Encode(k)
//     only regenerates the cardinality circuit. The engine's SAT binary
//     search leans on this: probing a new k re-uses every witness
//     clause.
//   - Independence from the exact solver is the point: nothing in this
//     package consults the branch-and-bound (only the shared IR), so
//     agreement between the two is a genuine cross-check, exercised by
//     the randomized differential suite.
package cnfenc
