package engine

import (
	"context"
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
// pool — ρ is the sum over components of forced deletions plus kernel
// minima. Small components mean exponentially smaller searches and smaller
// CNF counters, and independent components mean the solves run in parallel
// instead of one monolithic search.
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
//   - binary search on k over the CNF encoding of the component
//     (cnfenc.FamilyEncoder per probe), strongest when unit propagation
//     locks in forced deletions.
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
// clone is needed. Unbreakability and the zero-witness case are properties
// of the IR and short-circuit in solveComponent before any solver starts.
func (e *Engine) pipelineOnInstance(ctx context.Context, inst *witset.Instance, race bool) (*resilience.Result, error) {
	comps := inst.Components()
	useCache := e.cfg.NoClone

	rho := 0
	exactFlags, satFlags := 0, 0 // method reconstruction: all components
	totalSubs := 0               // kernel sub-components, cached ones included
	count := func(size int, exact, sat bool, subs, forced, dominated int) {
		rho += size
		totalSubs += subs
		e.kernelForced.Add(int64(forced))
		e.kernelDominated.Add(int64(dominated))
		if exact {
			exactFlags++
		}
		if sat {
			satFlags++
		}
	}

	// Cache first: a component whose fingerprint is memoized already
	// (typically one ApplyDelta carried from the previous version) is
	// looked up here, on the calling goroutine, and a hit is answered
	// without a worker. The rest go to the pool: there a fingerprint still
	// to render is rendered in parallel and looked up, and misses solved.
	var hits []*compEntry
	var todo []rawJob
	for _, c := range comps {
		if useCache {
			if key, ok := c.MemoizedKey(); ok {
				if ent, ok := e.comps.get(key); ok {
					if hits == nil {
						hits = make([]*compEntry, 0, len(comps))
					}
					hits = append(hits, ent)
					count(ent.rho, ent.exact, ent.sat, ent.subs, ent.forced, ent.dominated)
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
	for _, out := range outs {
		if out.err != nil {
			if firstErr == nil {
				firstErr = out.err
			}
			continue
		}
		count(out.size, out.exact, out.sat, out.subs, out.forced, out.dominated)
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
	res := &resilience.Result{Rho: rho, Method: method, Witnesses: inst.NumWitnesses()}
	if rho > 0 {
		// Each component contributes one tuple per unit of its ρ.
		tuples := make([]db.Tuple, 0, rho)
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

// compOut is the outcome of one raw component: its contribution to ρ and
// the contingency set, which solver kinds contributed (for the method
// string), the portfolio win counts of the freshly raced sub-components,
// and the kernelization statistics (recorded from the cache entry on a
// hit, so stats are comparable either way).
type compOut struct {
	size      int
	tuples    []db.Tuple
	exact     bool
	sat       bool
	subs      int
	forced    int
	dominated int
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
// skips both kernelization and solvers.
func (e *Engine) solveRawComponent(ctx context.Context, inst *witset.Instance, job rawJob, race, useCache bool) compOut {
	c := job.c
	var key string
	if useCache {
		key = inst.ComponentKey(c)
		if job.lookup {
			if ent, ok := e.comps.get(key); ok {
				return compOut{size: ent.rho, tuples: ent.tuples, exact: ent.exact, sat: ent.sat,
					subs: ent.subs, forced: ent.forced, dominated: ent.dominated}
			}
		}
	}
	kern, err := witset.KernelizeCtx(ctx, c.Fam)
	if err != nil {
		return compOut{err: err}
	}
	out := compOut{
		size:      len(kern.Forced),
		tuples:    inst.TupleSet(c.ToGlobal(kern.Forced)),
		forced:    len(kern.Forced),
		dominated: kern.Dominated,
	}
	subs := kern.Components()
	out.subs = len(subs)
	for _, sub := range subs {
		var (
			size   int
			local  []int32
			viaSAT bool
		)
		if race {
			size, local, viaSAT, err = e.raceComponent(ctx, sub.Fam)
		} else {
			e.solverRuns.Add(1)
			size, local, err = resilience.SolveFamily(ctx, sub.Fam, -1)
		}
		if err != nil {
			return compOut{err: err}
		}
		out.size += size
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
		e.comps.put(key, &compEntry{rho: out.size, tuples: out.tuples, exact: out.exact, sat: out.sat,
			subs: out.subs, forced: out.forced, dominated: out.dominated})
	}
	return out
}

// raceComponent races the exact branch-and-bound against SAT binary search
// on one component family, returning the minimum hitting set size, one
// optimal set of local element ids, and which racer finished first.
func (e *Engine) raceComponent(ctx context.Context, fam *witset.Family) (int, []int32, bool, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type racerOut struct {
		size int
		ids  []int32
		sat  bool
		err  error
	}
	ch := make(chan racerOut, 2)
	e.solverRuns.Add(2)
	go func() {
		size, ids, err := resilience.SolveFamily(rctx, fam, -1)
		ch <- racerOut{size: size, ids: ids, err: err}
	}()
	go func() {
		size, ids, err := satFamilySearch(rctx, fam)
		ch <- racerOut{size: size, ids: ids, sat: true, err: err}
	}()

	var firstErr error
	for i := 0; i < 2; i++ {
		out := <-ch
		if out.err == nil {
			cancel()
			// Drain the loser so both goroutines are done before return.
			if i == 0 {
				<-ch
			}
			return out.size, out.ids, out.sat, nil
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

// satFamilySearch computes a component's minimum hitting set size by
// binary-searching the smallest k whose CNF encoding is satisfiable. A
// greedy cover seeds the search: its size ub is an achievable incumbent, so
// the minimum lies in [1, ub] and the probes only ever ask budgets below
// ub — which also caps the incremental counter's register block at width
// ub instead of the whole universe, keeping the clause database near the
// size a single scratch encoding at the optimum would have been.
//
// The whole search runs against one persistent CDCL clause database
// (cnfenc.IncrementalSolver): the row clauses and the cardinality counter
// are loaded once, each probe is a SolveAssume call on the budget's gating
// literal, and the clauses learned while refuting one budget keep pruning
// every later probe — the incremental replacement for the old
// re-encode-and-resolve-from-scratch loop.
func satFamilySearch(ctx context.Context, fam *witset.Family) (int, []int32, error) {
	ids := witset.GreedyHittingSet(fam)
	best := len(ids)
	lo, hi := 1, best-1
	if lo > hi {
		return best, ids, nil
	}
	inc := cnfenc.NewIncrementalSolver(fam, hi)
	for lo <= hi {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		mid := lo + (hi-lo)/2
		assign, ok, err := inc.SolveBudget(ctx, mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			best, ids = mid, inc.Chosen(assign)
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return best, ids, nil
}
