package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/api"
	"repro/internal/cnfenc"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/witset"
)

// parseAndClassify records the uncached parse and classification of a
// query; every replayed operation does it once for its own query.
func parseAndClassify(tr *tracer, text string) (*cq.Query, *core.Classification, error) {
	var q *cq.Query
	var cl *core.Classification
	err := tr.time("cq.Parse", func() (err error) {
		q, err = cq.Parse(text)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	_ = tr.time("core.Classify", func() error {
		cl = core.Classify(q)
		return nil
	})
	return q, cl, nil
}

// newDB interns facts into a fresh database in the given order, as the
// Session's upload parser does.
func newDB(facts []fact) *db.Database {
	d := db.New()
	for _, f := range facts {
		if f.b == "" {
			d.AddNames(f.rel, f.a)
		} else {
			d.AddNames(f.rel, f.a, f.b)
		}
	}
	return d
}

// fingerprint times the component fingerprints of a whole instance, the
// per-solve cost of the component cache lookups.
func fingerprint(tr *tracer, inst *witset.Instance, comps []*witset.Component) {
	_ = tr.time("witset.Instance.ComponentKey", func() error {
		for _, c := range comps {
			_ = inst.ComponentKey(c)
		}
		return nil
	})
}

// solveLayers replays the pipeline of one fresh solve layer by layer:
// decomposition, then per component the kernel and per kernel
// sub-component each racer on its own. It returns the number of raw
// components and the tuples the kernels removed.
func solveLayers(ctx context.Context, tr *tracer, inst *witset.Instance, weighted bool) (comps, reduced int, err error) {
	var cs []*witset.Component
	_ = tr.time("witset.Instance.Components", func() error {
		cs = inst.Components()
		return nil
	})
	if !weighted {
		fingerprint(tr, inst, cs)
	}
	for _, c := range cs {
		var kern *witset.Kernel
		if err := tr.time("witset.KernelizeCtx", func() (err error) {
			kern, err = witset.KernelizeCtx(ctx, c.Fam)
			return err
		}); err != nil {
			return 0, 0, err
		}
		reduced += len(kern.Forced) + kern.Dominated
		for _, sub := range kern.Components() {
			if weighted {
				err = tr.time("resilience.SolveFamilyWeighted", func() error {
					_, _, err := resilience.SolveFamilyWeighted(ctx, sub.Fam, -1)
					return err
				})
			} else {
				err = tr.time("resilience.SolveFamily", func() error {
					_, _, err := resilience.SolveFamily(ctx, sub.Fam, -1)
					return err
				})
				if err == nil {
					err = tr.time("cnfenc.IncrementalSolver", func() error { return satSearch(ctx, sub.Fam) })
				}
			}
			if err != nil {
				return 0, 0, err
			}
		}
	}
	return len(cs), reduced, nil
}

// satSearch replicates the portfolio's SAT racer, which the engine does not
// export (satFamilySearch in internal/engine/portfolio.go): a greedy
// hitting set seeds a binary search on the budget over one incremental CNF.
// cnfenc.solve_sat_ms times this copy, so it does not follow later changes
// to the engine's own search loop.
func satSearch(ctx context.Context, fam *witset.Family) error {
	lo, hi := 1, len(witset.GreedyHittingSet(fam))-1
	if lo > hi {
		return nil
	}
	inc := cnfenc.NewIncrementalSolver(fam, hi)
	for lo <= hi {
		mid := lo + (hi-lo)/2
		_, ok, err := inc.SolveBudget(ctx, mid)
		if err != nil {
			return err
		}
		if ok {
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return nil
}

// weightedInstance derives the weighted instance a task's weight map
// gives, as the Session does.
func weightedInstance(inst *witset.Instance, d *db.Database, weights map[string]int64) (*witset.Instance, error) {
	wv := make([]int64, inst.NumTuples())
	for i := range wv {
		wv[i] = 1
	}
	for f, w := range weights {
		tup, aerr := api.LookupTuple(d, f)
		if aerr != nil {
			return nil, aerr
		}
		if id, ok := inst.ID(tup); ok {
			wv[id] = w
		}
	}
	return inst.WithWeights(wv)
}

func traceWarmReads(cfg config) (*output, error) {
	sc := newWarmScenario(cfg.seed)
	p, err := openInProcess(server.Config{}, 1)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if err := registerAll(p.c, sc.dbs); err != nil {
		return nil, err
	}
	ctx := context.Background()
	tr := newTracer()
	sess, eng := p.srv.Session(), p.srv.Engine()

	// Set-up work, traced as operations of their own: one fresh IR build
	// per IR of the working set, then a pass that fills the caches.
	for _, d := range sc.dbs {
		for q := range d.refs {
			if q.verdict != "NP-complete" {
				continue
			}
			pq, err := cq.Parse(q.text)
			if err != nil {
				return nil, err
			}
			fresh := newDB(d.facts)
			tr.op++
			if err := tr.time("witset.BuildWith", func() error {
				_, _, err := witset.BuildWith(ctx, pq, fresh, witset.BuildOptions{})
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	book := newAnswerBook(len(sc.tasks))
	for i, wt := range sc.tasks {
		res, err := doTask(p.c, wt.task, wt.stream)
		if err != nil {
			return nil, err
		}
		if err := book.add(i, res); err != nil {
			return nil, err
		}
	}
	before, err := p.counters()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ops := 0
	for time.Since(start) < cfg.seconds {
		for i, wt := range sc.tasks {
			tr.op++
			ops++
			if err := traceWarmTask(ctx, tr, p, sess, eng, wt, i, book); err != nil {
				return nil, fmt.Errorf("%s %s: %w", wt.task.Kind, wt.task.Query, err)
			}
		}
	}
	after, err := p.counters()
	if err != nil {
		return nil, err
	}
	extra := map[string]float64{"server.transport_ms": tr.transport("api.Session.Do/", "client.Do", "client.Stream")}
	cacheRatios(before, after, extra)
	var errs []error
	for i, wt := range sc.tasks {
		for _, res := range book.seen[i] {
			if err := wt.check(res); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return finishTrace(cfg, tr, "warm-reads", ops, extra, errs)
}

// traceWarmTask replays one warm-reads task: through the SDK, through the
// Session, and through the layers beneath, all on the warm state the
// request path sees.
func traceWarmTask(ctx context.Context, tr *tracer, p *inProcess, sess *api.Session, eng *engine.Engine, wt *warmTask, i int, book *answerBook) error {
	t := wt.task
	q, cl, err := parseAndClassify(tr, t.Query)
	if err != nil {
		return err
	}
	var res *api.Result
	clientSpan := "client.Do"
	if wt.stream {
		clientSpan = "client.Stream"
	}
	if err := tr.time(clientSpan, func() (err error) {
		res, err = doTask(p.c, t, wt.stream)
		return err
	}); err != nil {
		return err
	}
	if err := book.add(i, res); err != nil {
		return err
	}
	if err := tr.session(doSpanName(t), func() error {
		if wt.stream {
			return sess.Stream(ctx, t, func(*api.Result) error { return nil })
		}
		_, err := sess.Do(ctx, t)
		return err
	}); err != nil {
		return err
	}
	if t.Kind == api.KindClassify {
		return nil
	}
	d := sess.DB(t.DB)
	if t.Kind == api.KindSolve && len(t.Weights) == 0 && cl.Verdict == core.PTime {
		if cl.Algorithm == core.AlgPerm3Flow {
			d = d.Clone() // the one solver that deletes and restores tuples
		}
		return tr.time("resilience.SolveClassifiedCtx", func() error {
			_, err := resilience.SolveClassifiedCtx(ctx, cl, d)
			return err
		})
	}
	var inst *witset.Instance
	if err := tr.time("engine.Engine.InstanceFor", func() (err error) {
		inst, err = eng.InstanceFor(ctx, q, d)
		return err
	}); err != nil {
		return err
	}
	switch t.Kind {
	case api.KindSolve:
		if len(t.Weights) > 0 {
			winst, err := weightedInstance(inst, d, t.Weights)
			if err != nil {
				return err
			}
			_, _, err = solveLayers(ctx, tr, winst, true)
			return err
		}
		var comps []*witset.Component
		_ = tr.time("witset.Instance.Components", func() error {
			comps = inst.Components()
			return nil
		})
		fingerprint(tr, inst, comps)
		return nil
	case api.KindResponsibility:
		probe, aerr := api.LookupTuple(d, t.Tuple)
		if aerr != nil {
			return aerr
		}
		return tr.time("resilience.ResponsibilityOnInstance", func() error {
			_, _, err := resilience.ResponsibilityOnInstance(ctx, inst, d, probe)
			return err
		})
	case api.KindTopKResponsibility:
		return tr.time("resilience.TopKResponsibilityOnInstance", func() error {
			_, err := resilience.TopKResponsibilityOnInstance(ctx, inst, d, t.K)
			return err
		})
	case api.KindEnumerate:
		return tr.time("resilience.EnumerateMinimumOnInstance", func() error {
			_, _, err := resilience.EnumerateMinimumOnInstance(ctx, inst, d, t.MaxSets)
			return err
		})
	case api.KindDecide:
		return tr.time("resilience.DecideOnInstance", func() error {
			_, err := resilience.DecideOnInstance(ctx, inst, t.K)
			return err
		})
	case api.KindVerifyContingency:
		gamma := make([]db.Tuple, len(t.Gamma))
		for j, g := range t.Gamma {
			tup, aerr := api.LookupTuple(d, g)
			if aerr != nil {
				return aerr
			}
			gamma[j] = tup
		}
		return tr.time("resilience.VerifyContingencyOnInstance", func() error {
			_ = resilience.VerifyContingencyOnInstance(inst, d, gamma) // an invalid Γ is an answer
			return nil
		})
	}
	return nil
}

func traceColdSolve(cfg config) (*output, error) {
	sc := newColdScenario(cfg.seed)
	p, err := openInProcess(server.Config{}, 1)
	if err != nil {
		return nil, err
	}
	defer p.close()
	ctx := context.Background()
	tr := newTracer()
	before, err := p.counters()
	if err != nil {
		return nil, err
	}
	var comps, reduced []float64
	var errs []error
	start := time.Now()
	ops := 0
	for ; time.Since(start) < cfg.seconds; ops++ {
		tr.op = ops
		op := sc.op(ops)
		t := op.task(fmt.Sprintf("cold-0-%d", ops%coldNames))
		q, _, err := parseAndClassify(tr, t.Query)
		if err != nil {
			return nil, err
		}
		// The request path: upload and solve through the SDK.
		var res *api.Result
		err = tr.time("client.PutDB", func() error {
			ctx, cancel := waitCtx()
			defer cancel()
			_, err := p.c.PutDB(ctx, t.DB, factStrings(op.facts))
			return err
		})
		if err == nil {
			err = tr.time("client.Do", func() (err error) {
				ctx, cancel := waitCtx()
				defer cancel()
				res, err = p.c.Do(ctx, t)
				return err
			})
		}
		if err != nil {
			return nil, err
		}
		if err := op.check(res); err != nil {
			errs = append(errs, fmt.Errorf("operation %d: %w", ops, err))
		}
		// The same upload and solve on a fresh Session whose
		// classification cache is warm, like the daemon's after the
		// first few operations.
		sess := api.NewSession(api.Config{Engine: engineConfig()})
		if _, err := sess.RegisterFacts("warm", []string{"R(a,b)", "A(a)", "B(b)", "C(b)"}); err != nil {
			return nil, err
		}
		if _, err := sess.Do(ctx, api.Task{Kind: api.KindSolve, Query: t.Query, DB: "warm"}); err != nil {
			return nil, err
		}
		if err := tr.session("api.Session.RegisterFacts", func() error {
			_, err := sess.RegisterFacts(t.DB, factStrings(op.facts))
			return err
		}); err != nil {
			return nil, err
		}
		if err := tr.session(doSpanName(t), func() error {
			_, err := sess.Do(ctx, t)
			return err
		}); err != nil {
			return nil, err
		}
		// The layers, on fresh state.
		d := newDB(op.facts)
		_ = tr.time("db.Database.Freeze", func() error {
			d.Freeze()
			return nil
		})
		var inst *witset.Instance
		if err := tr.time("witset.BuildWith", func() (err error) {
			inst, _, err = witset.BuildWith(ctx, q, d, witset.BuildOptions{})
			return err
		}); err != nil {
			return nil, err
		}
		if op.weights != nil {
			if inst, err = weightedInstance(inst, d, t.Weights); err != nil {
				return nil, err
			}
		}
		nc, nr, err := solveLayers(ctx, tr, inst, op.weights != nil)
		if err != nil {
			return nil, err
		}
		comps = append(comps, float64(nc))
		reduced = append(reduced, float64(nr))
		eng := engine.New(engineConfig())
		fresh := newDB(op.facts)
		if err := tr.time("engine.Engine.Solve", func() error {
			if op.weights == nil {
				_, _, err := eng.Solve(ctx, q, fresh)
				return err
			}
			base, err := eng.InstanceFor(ctx, q, fresh)
			if err != nil {
				return err
			}
			winst, err := weightedInstance(base, fresh, t.Weights)
			if err != nil {
				return err
			}
			_, err = eng.SolveWeightedInstance(ctx, winst)
			return err
		}); err != nil {
			return nil, err
		}
	}
	after, err := p.counters()
	if err != nil {
		return nil, err
	}
	extra := map[string]float64{
		"server.transport_ms":          tr.transport("api.Session.Do/", "client.Do"),
		"witset.components_per_op":     meanOf(comps),
		"witset.kernel_reduced_per_op": meanOf(reduced),
	}
	cacheRatios(before, after, extra)
	return finishTrace(cfg, tr, "cold-solve", ops, extra, errs)
}

func traceLiveUpdates(cfg config) (*output, error) {
	sc := newLiveScenario(cfg.seed)
	bin, err := buildDaemon(cfg.root)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(cfg.root, buildDir, fmt.Sprintf("live-trace-%d", os.Getpid()))
	defer os.RemoveAll(base)
	prepared := filepath.Join(base, "prepared")
	if err := prepareJournal(bin, prepared, sc); err != nil {
		return nil, err
	}
	// Each consumer of the prepared directory gets its own copy.
	dirs := map[string]string{}
	for _, name := range []string{"recovery", "server", "session", "store"} {
		dirs[name] = filepath.Join(base, name)
		if out, err := exec.Command("cp", "-r", prepared, dirs[name]).CombinedOutput(); err != nil {
			return nil, fmt.Errorf("copying the prepared directory: %v: %s", err, out)
		}
	}
	m := sc.model
	ctx := context.Background()
	tr := newTracer()
	extra := map[string]float64{}
	opts := store.Options{Fsync: store.FsyncBatch, SnapshotEvery: liveSnapshotEvery}

	// Recovery, on its own copy.
	tr.op = 0
	var rec *store.Recovery
	if err := tr.time("store.Open", func() error {
		ds, r, err := store.Open(dirs["recovery"], opts)
		if err == nil {
			rec = r
			err = ds.Close()
		}
		return err
	}); err != nil {
		return nil, err
	}
	extra["store.recovery_ms"] = tr.median("store.Open", time.Millisecond)
	extra["store.replayed_records"] = float64(rec.Stats.WALRecords)

	// The request path: an in-process server over its copy, one watcher
	// and one writer.
	p, err := openInProcess(server.Config{DataDir: dirs["server"], Fsync: "batch", SnapshotEvery: liveSnapshotEvery}, 2)
	if err != nil {
		return nil, err
	}
	defer p.close()
	w := startWatcher(p.c)
	defer w.stop()
	if _, err := w.line(); err != nil {
		return nil, err
	}

	// The Session level: a Session over its own durable store, with the
	// watched IR cached.
	sds, srec, err := store.Open(dirs["session"], opts)
	if err != nil {
		return nil, err
	}
	defer sds.Close()
	sess := api.NewSession(api.Config{Engine: engineConfig(), Store: sds})
	for _, d := range srec.DBs {
		if _, err := sess.RestoreDB(d.Name, d.Facts, d.Version); err != nil {
			return nil, err
		}
	}
	watchQ, _, err := parseAndClassify(tr, qChain.text)
	if err != nil {
		return nil, err
	}
	if _, _, err := sess.SolveQuery(ctx, watchQ, sess.DB(liveDB)); err != nil {
		return nil, err
	}

	// The layers: a database, an engine holding its IR, and a raw store.
	raw, _, err := store.Open(dirs["store"], store.Options{Fsync: store.FsyncBatch, SnapshotEvery: -1})
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	cur := newDB(m.facts())
	cur.SetVersion(m.version)
	cur.Freeze()
	eng := engine.New(engineConfig())
	inst, err := eng.InstanceFor(ctx, watchQ, cur)
	if err != nil {
		return nil, err
	}

	// One batch through every level; the caller sets tr.op, and the
	// warm-up's batches run with tr.op = -1, outside every metric.
	var errs []error
	var ncomps []float64
	appended, snapshots := 0, 0
	step := func(n int, muts []api.Mutation) error {
		if _, _, err := parseAndClassify(tr, qChain.text); err != nil {
			return err
		}
		var info *api.DBInfo
		var line *api.Result
		err := tr.time("client.MutateDB", func() (err error) {
			c, cancel := waitCtx()
			defer cancel()
			info, err = p.c.MutateDB(c, liveDB, muts)
			return err
		})
		if err == nil {
			err = tr.time("client.Watch", func() (err error) {
				line, err = w.line()
				return err
			})
		}
		if err != nil {
			return err
		}
		if info.Version != m.version {
			errs = append(errs, fmt.Errorf("batch %d: PATCH answered version %d, model %d", n, info.Version, m.version))
		}
		if err := checkWatchLine(line, m.version, m.rho); err != nil {
			errs = append(errs, fmt.Errorf("batch %d: %w", n, err))
		}

		if err := tr.session("api.Session.MutateDB", func() error {
			_, err := sess.MutateDB(ctx, liveDB, muts)
			return err
		}); err != nil {
			return err
		}
		if err := tr.session("api.watch.resolve", func() error {
			br := sess.Engine().SolveOne(ctx, engine.Instance{Query: watchQ, DB: sess.DB(liveDB)})
			return br.Err
		}); err != nil {
			return err
		}

		next, resolved, err := traceClone(tr, cur, muts)
		if err != nil {
			return err
		}
		_ = tr.time("engine.Engine.MigrateIRs", func() error {
			eng.MigrateIRs(ctx, cur, next, resolved)
			return nil
		})
		eng.ForgetDatabase(cur)
		work := cur.Clone()
		for v := work.NumConsts(); v < next.NumConsts(); v++ {
			work.Const(next.ConstName(db.Value(v)))
		}
		if err := tr.time("witset.ApplyDelta", func() (err error) {
			inst, _, err = witset.ApplyDelta(ctx, inst, work, resolved)
			return err
		}); err != nil {
			return err
		}
		var comps []*witset.Component
		_ = tr.time("witset.Instance.Components", func() error {
			comps = inst.Components()
			return nil
		})
		fingerprint(tr, inst, comps)
		if tr.op >= 0 {
			ncomps = append(ncomps, float64(len(comps)))
		}
		cur = next

		if err := tr.time("store.DiskStore.MutateDB", func() error {
			return raw.MutateDB(liveDB, muts, m.version)
		}); err != nil {
			return err
		}
		if appended++; appended%liveSnapshotEvery == 0 {
			if tr.op >= 0 {
				snapshots++
			}
			return tr.time("store.DiskStore.Snapshot", raw.Snapshot)
		}
		return nil
	}
	warm := m.warmUp(cfg.seed)
	tr.op = -1
	for i, ci := range warm {
		if err := step(i, m.toggle(ci)); err != nil {
			return nil, err
		}
	}

	before, err := p.counters()
	if err != nil {
		return nil, err
	}
	st0 := raw.Stats()
	start := time.Now()
	ops := 0
	for ; time.Since(start) < cfg.seconds; ops++ {
		tr.op = ops + 1
		if err := step(len(warm)+ops, m.next()); err != nil {
			return nil, err
		}
	}
	if snapshots == 0 {
		if err := tr.time("store.DiskStore.Snapshot", raw.Snapshot); err != nil {
			return nil, err
		}
	}
	after, err := p.counters()
	if err != nil {
		return nil, err
	}
	st1 := raw.Stats()
	extra["server.transport_ms"] = tr.transport("api.Session.MutateDB", "client.MutateDB")
	extra["store.wal_append_us"] = tr.median("store.DiskStore.MutateDB", time.Microsecond)
	extra["store.bytes_per_op"] = float64(st1.AppendBytes-st0.AppendBytes) / float64(ops)
	extra["store.fsyncs_per_op"] = float64(st1.Fsyncs-st0.Fsyncs) / float64(ops)
	extra["witset.components_per_op"] = meanOf(ncomps)
	cacheRatios(before, after, extra)
	return finishTrace(cfg, tr, "live-updates", ops, extra, errs)
}

// traceClone replays the Session's copy-on-write step of a batch: clone
// the live database, apply the batch, freeze. It returns the new database
// and the batch resolved against it.
func traceClone(tr *tracer, cur *db.Database, muts []api.Mutation) (*db.Database, []witset.Mutation, error) {
	var next *db.Database
	_ = tr.time("db.Database.Clone", func() error {
		next = cur.Clone()
		return nil
	})
	resolved := make([]witset.Mutation, len(muts))
	for i, mu := range muts {
		f, err := parseFact(mu.Fact)
		if err != nil {
			return nil, nil, err
		}
		t := db.Tuple{Rel: f.rel, Arity: 2}
		t.Args[0], t.Args[1] = next.Const(f.a), next.Const(f.b)
		if mu.Op == api.MutationInsert {
			next.AddTuple(t)
		} else {
			next.Remove(t)
		}
		resolved[i] = witset.Mutation{Insert: mu.Op == api.MutationInsert, Tuple: t}
	}
	next.Freeze()
	return next, resolved, nil
}

// finishTrace writes the spans and assembles the per-layer result.
func finishTrace(cfg config, tr *tracer, workload string, ops int, extra map[string]float64, errs []error) (*output, error) {
	if ops == 0 {
		return nil, fmt.Errorf("no operation replayed")
	}
	if err := tr.write(cfg.root, workload); err != nil {
		return nil, err
	}
	return tr.layerOutput(ops, extra, errs), nil
}
