package resilience

import "repro/internal/db"

// Min-weight resilience: every tuple carries a positive integer deletion
// cost (witset.Instance.WithWeights) and ρ_w(q, D) is the minimum total
// cost of a contingency set — the ILP generalization of the paper's
// cardinality question. With all costs 1, ρ_w = ρ, which is what the
// weighted differential suite pins. There is no separate weighted solver:
// the one branch-and-bound (hitting.go) reads the family's costs, nil
// meaning unit cost, and every entry point answers both cost models;
// WeightedResult is the result of the ones that report a total cost.
// Budgets are total-cost budgets.
// Kernelization stays sound because the domination rule is weight-aware
// (see witset.Kernelize), and component minima still add: components share
// no elements, so costs are disjoint sums.

// WeightedResult is the outcome of a min-weight resilience computation.
type WeightedResult struct {
	// Cost is ρ_w(q, D), the total cost of a minimum-weight contingency
	// set. With unit weights it equals Rho of the cardinality solvers.
	Cost int64
	// ContingencySet is one optimal contingency set (nil when Cost == 0).
	ContingencySet []db.Tuple
	// Method names the algorithm that produced the result.
	Method string
	// Witnesses is the number of witnesses enumerated.
	Witnesses int
}
