package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cnfenc"
	"repro/internal/db"
	"repro/internal/resilience"
	"repro/internal/witset"
)

// pipelineOnInstance attacks one NP-hard (or unclassified) instance
// through the decompose+kernel pipeline: the normalized witness family is
// first split into the connected components of its row-intersection graph,
// then each component is kernelized (unit-row forcing, dominated-tuple
// elimination) and solved independently on a bounded intra-instance worker
// pool — the minimum is the sum over components of forced deletions plus
// kernel minima. Small components mean exponentially smaller searches and
// smaller CNF counters, and independent components mean the solves run in
// parallel instead of one monolithic search.
//
// Costs come from the instance's weights, so one pipeline answers both
// questions: on an unweighted instance every tuple costs 1 and the result's
// Cost is ρ; on a weighted one it is ρ_w, the kernel's domination rule is
// weight-aware, and the component fingerprints cover the costs.
//
// Decomposing before kernelizing is sound because both kernelization rules
// are component-local: a unit row forces an element of its own component,
// and a dominating element must co-occur with the dominated one, so the
// union of per-component kernels is exactly the kernel of the whole
// family. The order matters for incremental solves: each raw component is
// looked up in the engine's component-result cache by content fingerprint
// (NoClone mode only) BEFORE any kernelization runs, so after a
// delta-maintained mutation the untouched components skip kernelize and
// solver alike and contribute their remembered minima for free — only the
// dirtied components pay for the pipeline. The untouched components carry
// their fingerprints from the previous version, so they are looked up on
// the calling goroutine, and only the rest reach the worker pool. Cache
// hits do not touch the portfolio win counters (nothing raced) but carry
// their recorded winners into the method string and their recorded kernel
// counters into the stats, so a partially-cached solve reports the same
// method and comparable statistics to the all-fresh solve it shortcuts.
//
// With race set, each fresh kernel sub-component is raced by two solvers,
// cancelling the loser:
//
//   - exact branch-and-bound over the component's hitting-set family
//     (resilience.SolveFamily), strongest when the packing lower bound
//     prunes well;
//   - binary search on the budget over one incremental CNF counter
//     (satFamilySearch), strongest when unit propagation locks in forced
//     deletions. It declines families whose counter would be too large.
//
// The two racers dominate on different instance families, so a race is
// never slower than the better solver by more than scheduling noise, and
// is often dramatically faster than a fixed choice. Without race (the
// plain exact configuration), each fresh sub-component runs the exact
// solver alone and the method is reported as "exact".
//
// The witness hypergraph comes in prebuilt (once per solve, or shared
// across solves by the engine's cross-request IR cache under NoClone) and
// is immutable (the derived family and the component split are computed
// once and shared), so no solver touches the database and no defensive
// clone is needed. Unbreakability is a property of the IR, and callers
// answer it before any solver starts.
func (e *Engine) pipelineOnInstance(ctx context.Context, inst *witset.Instance, race bool) (*resilience.WeightedResult, error) {
	comps := inst.Components()
	useCache := e.cfg.NoClone

	cost := int64(0)
	ntuples := 0
	exactFlags, satFlags := 0, 0 // method reconstruction: all components
	totalSubs := 0               // kernel sub-components, cached ones included
	count := func(ent *compEntry) {
		cost += ent.cost
		ntuples += len(ent.tuples)
		totalSubs += ent.subs
		e.kernelForced.Add(int64(ent.forced))
		e.kernelDominated.Add(int64(ent.dominated))
		if ent.exact {
			exactFlags++
		}
		if ent.sat {
			satFlags++
		}
	}

	// Cache first: a component whose fingerprint is known without
	// rendering (typically one ApplyDelta carried from the previous
	// version, or a weighted view's component whose unweighted twin was
	// fingerprinted) is looked up here, on the calling goroutine, and a
	// hit is answered without a worker. The rest go to the pool: there a
	// fingerprint still to render is rendered in parallel and looked up,
	// and misses solved.
	var hits []*compEntry
	var todo []rawJob
	for _, c := range comps {
		if useCache {
			if key, ok := inst.MemoizedKey(c); ok {
				if ent, ok := e.comps.get(key); ok {
					if hits == nil {
						hits = make([]*compEntry, 0, len(comps))
					}
					hits = append(hits, ent)
					count(ent)
					continue
				}
				todo = append(todo, rawJob{c: c})
				continue
			}
		}
		todo = append(todo, rawJob{c: c, lookup: useCache})
	}

	outs := make([]compOut, len(todo))
	if len(todo) > 0 {
		rctx, cancel := context.WithCancel(ctx)
		defer cancel()

		workers := min(e.componentWorkers(), len(todo))
		idxCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idxCh {
					outs[i] = e.solveRawComponent(rctx, inst, todo[i], race, useCache)
				}
			}()
		}
		for i := range todo {
			idxCh <- i
		}
		close(idxCh)
		wg.Wait()
	}

	var firstErr error
	for i := range outs {
		out := &outs[i]
		if out.err != nil {
			if firstErr == nil {
				firstErr = out.err
			}
			continue
		}
		count(&out.compEntry)
		if race {
			e.portfolioExactWins.Add(int64(out.exactWins))
			e.portfolioSATWins.Add(int64(out.satWins))
		}
	}
	if firstErr != nil {
		// Prefer the caller's cancellation cause over a racer's
		// propagated copy of it.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, firstErr
	}
	e.componentsSolved.Add(int64(totalSubs))
	if totalSubs > 1 {
		e.multiComponent.Add(1)
	}

	method := "exact"
	if race {
		method = "portfolio/"
		switch {
		case exactFlags == 0 && satFlags == 0:
			method += "kernel" // the kernels solved the instance outright
		case satFlags == 0:
			method += "exact"
		case exactFlags == 0:
			method += "sat-binary-search"
		default:
			method += "mixed"
		}
	}
	res := &resilience.WeightedResult{Cost: cost, Method: method, Witnesses: inst.NumWitnesses()}
	if cost > 0 {
		tuples := make([]db.Tuple, 0, ntuples)
		for _, ent := range hits {
			tuples = append(tuples, ent.tuples...)
		}
		for _, out := range outs {
			tuples = append(tuples, out.tuples...)
		}
		db.SortTuples(tuples)
		res.ContingencySet = tuples
	}
	return res, nil
}

// rawJob is one raw component for the worker pool. lookup asks the worker
// to render the component's fingerprint and look it up in the component
// cache first; without it the cache was consulted already (or is off).
type rawJob struct {
	c      *witset.Component
	lookup bool
}

// compOut is the outcome of one raw component: what a cache entry records
// (recorded from the entry itself on a hit, so stats are comparable either
// way), plus the portfolio win counts of the freshly raced sub-components.
type compOut struct {
	compEntry
	exactWins int
	satWins   int
	err       error
}

// solveRawComponent answers one raw (un-kernelized) component: from the
// component cache when the job asks for a lookup and the component's
// content fingerprint is known there, otherwise by kernelizing the
// component's family and solving each kernel sub-component — raced under
// race, plain exact otherwise. Under useCache, fresh results are cached
// under the raw fingerprint so the next solve of an identical component
// (typically: the same component after a delta elsewhere in the database)
// skips both kernelization and solvers. The fingerprint covers the tuples'
// costs on a weighted instance, so weighted and unit answers never share
// an entry.
func (e *Engine) solveRawComponent(ctx context.Context, inst *witset.Instance, job rawJob, race, useCache bool) compOut {
	c := job.c
	var key string
	if useCache {
		key = inst.ComponentKey(c)
		if job.lookup {
			if ent, ok := e.comps.get(key); ok {
				return compOut{compEntry: *ent}
			}
		}
	}
	kern, err := witset.KernelizeCtx(ctx, c.Fam)
	if err != nil {
		return compOut{err: err}
	}
	out := compOut{compEntry: compEntry{
		tuples:    inst.TupleSet(c.ToGlobal(kern.Forced)),
		forced:    len(kern.Forced),
		dominated: kern.Dominated,
	}}
	for _, id := range kern.Forced {
		out.cost += c.Fam.Cost(id)
	}
	subs := kern.Components()
	out.subs = len(subs)
	for _, sub := range subs {
		var (
			cost   int64
			local  []int32
			viaSAT bool
		)
		if race {
			cost, local, viaSAT, err = e.raceComponent(ctx, sub.Fam)
		} else {
			e.solverRuns.Add(1)
			cost, local, err = resilience.SolveFamily(ctx, sub.Fam, -1)
		}
		if err != nil {
			return compOut{err: err}
		}
		out.cost += cost
		// Solver ids are local to the sub-component's family; lift them
		// through the sub-component's and the raw component's remaps.
		out.tuples = append(out.tuples, inst.TupleSet(c.ToGlobal(sub.ToGlobal(local)))...)
		if viaSAT {
			out.sat = true
			out.satWins++
		} else {
			out.exact = true
			out.exactWins++
		}
	}
	if key != "" {
		ent := out.compEntry
		e.comps.put(key, &ent, inst.Weights() != nil)
	}
	return out
}

// raceComponent races the exact branch-and-bound against SAT binary search
// on one component family, returning the minimum hitting set cost, one
// optimal set of local element ids, and which racer finished first. A SAT
// racer that declines with cnfenc.ErrWidthTooLarge is not an error: the
// race keeps waiting for the exact side instead of cancelling it.
func (e *Engine) raceComponent(ctx context.Context, fam *witset.Family) (int64, []int32, bool, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type racerOut struct {
		cost int64
		ids  []int32
		sat  bool
		err  error
	}
	ch := make(chan racerOut, 2)
	e.solverRuns.Add(2)
	go func() {
		cost, ids, err := resilience.SolveFamily(rctx, fam, -1)
		ch <- racerOut{cost: cost, ids: ids, err: err}
	}()
	go func() {
		cost, ids, err := satFamilySearch(rctx, fam)
		ch <- racerOut{cost: cost, ids: ids, sat: true, err: err}
	}()

	var firstErr error
	for received := 1; received <= 2; received++ {
		out := <-ch
		if out.err == nil {
			cancel()
			// Drain the loser so both goroutines are done before return.
			if received == 1 {
				<-ch
			}
			return out.cost, out.ids, out.sat, nil
		}
		if errors.Is(out.err, cnfenc.ErrWidthTooLarge) {
			continue // SAT declined the family; let the exact side finish
		}
		if firstErr == nil {
			firstErr = out.err
		}
	}
	// Both racers failed (typically: the shared context was cancelled).
	if err := ctx.Err(); err != nil {
		return 0, nil, false, err
	}
	return 0, nil, false, firstErr
}

// satFamilySearch computes a component's minimum hitting-set cost by
// binary-searching the smallest satisfiable total-cost budget over one
// persistent CDCL clause database (cnfenc.IncrementalSolver): the row
// clauses and the counter are loaded once, each probe is a SolveAssume
// call on the budget's gating literal, and the clauses learned while
// refuting one budget keep pruning every later probe.
//
// A greedy cover seeds the search: its cost ub is an achievable
// incumbent, so the minimum lies in [1, ub] and the probes only ever ask
// budgets below ub — which also caps the counter's register block at width
// ub instead of the whole universe. Each satisfiable probe tightens the
// incumbent to the model's true cost (a model at budget k may cost less
// than k), skipping the budgets in between. A counter of more than
// cnfenc.MaxRegisters registers is never built: the search declines with
// cnfenc.ErrWidthTooLarge (wrapped) before construction, which is not
// cancellable.
//
// On a weighted family, costs are first normalized by the gcd of the
// occurring elements' weights: the register block holds one register per
// cost unit, so dividing out a common factor shrinks the counter by that
// factor — and makes the search invariant under uniform weight scaling,
// probing the exact same budgets for w and c·w.
func satFamilySearch(ctx context.Context, fam *witset.Family) (int64, []int32, error) {
	g := int64(1)
	if fam.W != nil {
		fam, g = normalizeCosts(fam)
	}
	ids := witset.GreedyHittingSet(fam)
	best := int64(0)
	for _, e := range ids {
		best += fam.Cost(e)
	}
	lo, hi := int64(1), best-1
	if lo > hi {
		return best * g, ids, nil
	}
	// N ≥ 1 here (some row is unhit), and the bound is checked by dividing
	// rather than multiplying: client costs reach 2^63-1, so N·(hi+1) may
	// overflow.
	if hi+1 > cnfenc.MaxRegisters/int64(fam.N) {
		return 0, nil, fmt.Errorf("%w: %d elements at budget %d, cap %d registers", cnfenc.ErrWidthTooLarge, fam.N, hi, cnfenc.MaxRegisters)
	}
	inc := cnfenc.NewIncrementalSolver(fam, int(hi))
	for lo <= hi {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		mid := lo + (hi-lo)/2
		assign, ok, err := inc.SolveBudget(ctx, int(mid))
		if err != nil {
			return 0, nil, err
		}
		if ok {
			best, ids = inc.Cost(assign), inc.Chosen(assign)
			hi = best - 1
		} else {
			lo = mid + 1
		}
	}
	return best * g, ids, nil
}

// normalizeCosts divides a weighted family's costs by the gcd g of the
// weights of the elements occurring in some row, returning the rescaled
// family and g. Absent elements are never chosen, so their weights are
// irrelevant; they get cost 1 to keep the vector valid.
func normalizeCosts(fam *witset.Family) (*witset.Family, int64) {
	g := int64(0)
	for e, occ := range fam.Occ {
		if len(occ) > 0 {
			g = gcd64(g, fam.W[e])
		}
	}
	if g == 0 {
		g = 1
	}
	nf := *fam
	nf.W = make([]int64, fam.N)
	for e := range nf.W {
		nf.W[e] = 1
		if len(fam.Occ[e]) > 0 {
			nf.W[e] = fam.W[e] / g
		}
	}
	return &nf, g
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
