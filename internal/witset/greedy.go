package witset

// GreedyHittingSet returns a hitting set of the family built by repeatedly
// taking the element with the best coverage-per-cost ratio among the
// still-unhit rows (costs from fam.W, 1 each when nil; ties to the lowest
// element id) — the classic weighted set-cover greedy, which on a unit
// family takes the element covering the most unhit rows. Its cost is the
// cheap upper bound the solvers seed their searches with: the exact
// branch-and-bound uses it as the initial incumbent, and the engine's SAT
// binary search uses it to cap both the probe range and the width of the
// incremental counter — a counter gated at budgets below the greedy cost
// is all any probe can ask for, and is dramatically smaller than one sized
// to the whole universe when the optimum is small. Element-occurrence
// counts are maintained decrementally: selecting an element pays only for
// the rows it newly hits.
func GreedyHittingSet(fam *Family) []int32 {
	hit := make([]bool, len(fam.Rows))
	remaining := len(fam.Rows)
	var out []int32
	count := make([]int64, fam.N)
	for _, row := range fam.Rows {
		for _, e := range row {
			count[e]++
		}
	}
	w := fam.W
	for remaining > 0 {
		// Maximize count[e]/cost(e); the cross-multiplied comparison avoids
		// float ties, and strict > keeps the lowest id on equal ratios.
		bestE := -1
		var bestC int64
		for e, c := range count {
			if c == 0 {
				continue
			}
			if bestE < 0 || (w == nil && c > bestC) || (w != nil && c*w[bestE] > bestC*w[e]) {
				bestE, bestC = e, c
			}
		}
		if bestE < 0 {
			break
		}
		out = append(out, int32(bestE))
		for _, si := range fam.Occ[bestE] {
			if !hit[si] {
				hit[si] = true
				remaining--
				for _, e := range fam.Rows[si] {
					count[e]--
				}
			}
		}
	}
	return out
}
