// Package resilience implements the paper's resilience solvers.
//
// ρ(q, D) — the resilience of Boolean query q on database D — is the
// minimum number of endogenous tuples whose deletion makes q false
// (Definition 1). The package provides:
//
//   - Exact (and its Ctx/Filtered/OnInstance/WithOptions variants):
//     branch-and-bound minimum hitting set over the witness hypergraph
//     (internal/witset), correct for every CQ (the trusted oracle;
//     worst-case exponential);
//   - LinearFlow: the network-flow solver for linear queries, following
//     [31] and extended to one 2-confluence per Proposition 31 / Lemma 55;
//   - the specialized PTIME solvers of Propositions 13, 33, 36, 41 and 44;
//   - Solve: a dispatcher that classifies the query (Theorem 37) and picks
//     the fastest sound algorithm, taking the Lemma 14 minimum over
//     connected components;
//   - EnumerateMinimum: ρ plus every minimum contingency set;
//   - Responsibility: minimal contingency size making a tuple a
//     counterfactual cause (Meliou et al. [31]);
//   - TopKResponsibilityOnInstance: the k most responsible tuples off
//     one IR.
//
// Every hitting-set layer — the branch-and-bound, the instance pipeline,
// enumeration, responsibility and top-k — answers the min-cost
// generalization too: an instance carrying per-tuple deletion costs
// (witset.Instance.WithWeights) is solved by the same code, which reads
// the costs from witset.Family.W, nil meaning unit cost. The *Weighted*
// entry points differ from the cardinality ones only in reporting an
// int64 cost.
//
// # Key invariants
//
//   - Every exact-path API lands in one entry point over a
//     witset.Instance; callers that already hold an IR (the engine's
//     portfolio and cross-request cache, the serving layer) use the
//     *OnInstance variants and skip re-enumeration.
//   - The exact path runs the kernel+decompose pipeline (DESIGN.md §7):
//     the witness family is kernelized (unit-row forcing, dominated-tuple
//     elimination), split into connected components, and solved per
//     component — ρ is forced deletions plus the sum of component minima.
//     Options.Monolithic keeps the whole-family solver reachable as the
//     differential suite's oracle, and SolveFamily exposes the
//     per-component building block for the engine's component-parallel
//     portfolio. EnumerateMinimum and Responsibility decompose but never
//     kernelize with domination: it preserves one optimum, not all.
//   - Decide and VerifyContingency are IR consumers too: membership
//     thresholds against the budgeted pipeline solve, and verification
//     checks that the candidate set hits every witness row — neither ever
//     mutates the database.
//   - Solvers treat the database as read-only, with one exception: the
//     Perm3Flow family probes deletions and always restores before
//     returning (callers sharing a database across goroutines must
//     clone around it — the engine does).
//   - Cancellation: the *Ctx variants poll their context through ctxpoll
//     inside enumeration and search loops and return ctx.Err() once it
//     fires; results are never partial — a cancelled call returns an
//     error, not a wrong ρ.
//   - ErrUnbreakable is an answer, not a failure: some witness consists
//     purely of exogenous tuples, so no endogenous deletion set can
//     falsify the query (ρ = ∞).
package resilience
