package cnfenc

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/sat"
	"repro/internal/witset"
)

// MaxRegisters bounds the register block, N·(kcap+1) variables and about
// twice as many clauses, of a counter the engine's SAT racer may build.
// The constructor itself takes no context, so an oversized counter could
// not be cancelled while it is built; the racer checks this bound first
// and declines with ErrWidthTooLarge instead, leaving the component to the
// branch-and-bound. Dense chain families where SAT wins the race need a
// few thousand registers; at about 8,000 neither racer finishes promptly.
const MaxRegisters = 1 << 14

// ErrWidthTooLarge reports that a counter would need more registers than
// MaxRegisters allows.
var ErrWidthTooLarge = errors.New("cnfenc: counter register block exceeds cap")

// IncrementalSolver renders one set family into a single persistent CDCL
// clause database and answers "is there a hitting set of total cost ≤ k?"
// for many budgets k over it, with costs from the family's W (1 each when
// nil, making cost the cardinality). The witness row clauses are loaded
// once and the Sinz sequential counter is emitted once at the maximum
// budget, with per-budget assumption literals gating the "≤ k" outputs —
// so a budget probe is one sat.Solver.SolveAssume call and every lemma the
// solver learns while refuting one budget keeps pruning all later budgets.
// This is the Eén–Sörensson incremental interface applied to the engine's
// SAT binary search: one clause database per component, budgets driven
// purely by assumptions.
//
// Encoding: element e of the family is CNF variable e+1 (exactly like
// FamilyEncoder), and register s(i,j) — "the chosen elements among
// x₁..x_i cost at least j", j saturating at width = kcap+1 — is a variable
// above the element range. Element i advances the register index by its
// cost w_i. Clauses, for P_i the true prefix cost:
//
//	base:  x_i → s(i, min(w_i, width))
//	carry: s(i−1, j) → s(i, j)
//	add:   x_i ∧ s(i−1, j) → s(i, min(j+w_i, width))   (j < width)
//	mono:  s(i, j) → s(i, j−1)                          (weighted only)
//
// base/carry/add force s(i, min(P_i, width)) by induction on i; add at
// j = width is subsumed by carry and omitted. Only upward implications
// are needed on a unit family: each element advances the count by exactly
// 1, so the forced register is the gate s(n, k+1) itself as soon as k+1
// elements are chosen. Weighted increments land between consecutive
// partial sums, so the gate may sit below the forced register, and the
// downward-monotone clauses, emitted only when W is set, walk down to it.
// Assume(k) = ¬s(n, k+1) is then exactly "total cost ≤ k": forcing makes
// any costlier choice conflict, and the intended model
// s(i,j) ⇔ j ≤ min(P_i, width) satisfies every clause, so no cost-≤-k
// choice is excluded.
type IncrementalSolver struct {
	fam   *witset.Family // costs from fam.W; nil: unit costs
	n     int            // element universe size; elements are variables 1..n
	wsum  int64          // total cost of the universe
	kcap  int            // largest budget with a gating register
	width int            // registers per counter stage: kcap+1
	base  int            // register variables start at base+1
	s     *sat.Solver
}

// NewIncrementalSolver builds the persistent clause database for fam with
// budget registers up to kcap. Budgets ≥ the total universe cost are
// trivially satisfiable and need no register, so kcap is clamped to one
// below it. The engine's binary search passes one below its greedy cover's
// cost, so every probe it can ask is covered; single-probe callers pass
// their one budget and get a counter no wider than a per-k encoding.
func NewIncrementalSolver(fam *witset.Family, kcap int) *IncrementalSolver {
	n := fam.N
	wsum := int64(0)
	for e := range int32(n) {
		wsum += fam.Cost(e)
	}
	kcap = int(max(min(int64(kcap), wsum-1), 0))
	inc := &IncrementalSolver{fam: fam, n: n, wsum: wsum, kcap: kcap, width: kcap + 1, base: n}
	s := sat.NewSolver(n + n*inc.width)
	inc.s = s
	for _, row := range fam.Rows {
		clause := make(sat.Clause, len(row))
		for j, id := range row {
			clause[j] = sat.Literal(int(id) + 1)
		}
		s.AddClause(clause)
	}
	// Stage 1 goes last: clause order steers the CDCL search, and this is
	// the order the SAT benchmarks on the perf gate were recorded with.
	for i := 2; i <= n; i++ {
		inc.addStage(i)
	}
	if n >= 1 {
		inc.addStage(1)
	}
	return inc
}

// addStage emits counter stage i's clauses.
func (inc *IncrementalSolver) addStage(i int) {
	s := inc.s
	wi := inc.fam.Cost(int32(i - 1))
	s.AddClause(sat.Clause{-inc.x(i), inc.reg(i, inc.saturate(wi))})
	if i >= 2 {
		for j := 1; j <= inc.width; j++ {
			s.AddClause(sat.Clause{-inc.reg(i-1, j), inc.reg(i, j)})
			if j < inc.width {
				s.AddClause(sat.Clause{-inc.x(i), -inc.reg(i-1, j), inc.reg(i, inc.saturate(int64(j)+wi))})
			}
		}
	}
	if inc.fam.W != nil {
		for j := 2; j <= inc.width; j++ {
			s.AddClause(sat.Clause{-inc.reg(i, j), inc.reg(i, j-1)})
		}
	}
}

// saturate caps a register index at the width.
func (inc *IncrementalSolver) saturate(j int64) int {
	return int(min(j, int64(inc.width)))
}

func (inc *IncrementalSolver) x(i int) sat.Literal { return sat.Literal(i) }

func (inc *IncrementalSolver) reg(i, j int) sat.Literal {
	return sat.Literal(inc.base + (i-1)*inc.width + j)
}

// Assume returns the assumption literals that gate the encoding to total
// cost ≤ k: ¬s(n, k+1) for k below the universe's total cost, nothing
// above it (deleting every element hits every row). Budgets above the
// register cap but below the total have no gate and panic — a caller bug,
// since the cap is chosen from the probe range.
func (inc *IncrementalSolver) Assume(k int) []sat.Literal {
	if int64(k) >= inc.wsum {
		return nil
	}
	if k < 0 || k > inc.kcap {
		panic(fmt.Sprintf("cnfenc: budget %d outside encoder cap %d", k, inc.kcap))
	}
	return []sat.Literal{-inc.reg(inc.n, k+1)}
}

// SolveBudget reports whether the family has a hitting set of total cost
// ≤ k, returning the solver's model when it does. Learned clauses persist
// into the next call.
func (inc *IncrementalSolver) SolveBudget(ctx context.Context, k int) (assign []bool, ok bool, err error) {
	return inc.s.SolveAssumeCtx(ctx, inc.Assume(k))
}

// Chosen projects a satisfying assignment back to the chosen element ids,
// sorted ascending (the element block of the model is variables 1..n).
func (inc *IncrementalSolver) Chosen(assign []bool) []int32 {
	var out []int32
	for i := 0; i < inc.n; i++ {
		if assign[i+1] {
			out = append(out, int32(i))
		}
	}
	return out
}

// Cost sums the costs of the elements a satisfying assignment chooses.
func (inc *IncrementalSolver) Cost(assign []bool) int64 {
	total := int64(0)
	for i := 0; i < inc.n; i++ {
		if assign[i+1] {
			total += inc.fam.Cost(int32(i))
		}
	}
	return total
}

// Solver exposes the underlying persistent solver, for callers that layer
// extra assumptions or clauses on top of the budgeted encoding.
func (inc *IncrementalSolver) Solver() *sat.Solver { return inc.s }
