package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/api"
	"repro/client"
)

// warm-reads: a fixed cycle of every read kind against twelve small
// databases registered during set-up. The working set (12 databases, 16
// witness IRs, a few hundred components) sits far below the IR cache's 256
// entries and the component cache's 4096, so after the warm-up pass every
// IR and every component answer comes from a cache, and the cycle measures
// the warm path: transport, Session dispatch, cache lookups, component
// fingerprints, the PTIME flow solvers and the solvers that run over a
// cached IR. Four groups of small databases rather than three large ones
// keep the cycle's cost alike across seeds without making the ranking
// tasks, whose cost grows faster than the database, dominate it.

const (
	warmGroups  = 4   // database groups: a chain, a confluence and a permutation database each
	warmFacts   = 250 // facts per warm database
	warmProbes  = 6   // responsibility probes per group
	warmTopK    = 5
	warmMaxSets = 4
)

// refDB is a generated database with everything the checks need.
type refDB struct {
	name     string
	clusters []cluster
	facts    []fact
	ix       *factIndex
	weights  map[fact]int64   // per-fact deletion costs of weighted tasks
	at       map[fact][2]int  // fact → cluster index, position in cluster
	refs     map[*query]dbRef // reference answers per query
}

// dbRef is one query's reference over a whole database: the clusters'
// minima, summed.
type dbRef struct {
	rho  int
	wrho int64
	best []fact
	per  []minima
}

func newRefDB(name string, clusters []cluster, qs ...*query) *refDB {
	d := &refDB{name: name, clusters: clusters, weights: map[fact]int64{}, at: map[fact][2]int{}, refs: map[*query]dbRef{}}
	for ci, c := range clusters {
		for fi, f := range c.facts {
			d.facts = append(d.facts, f)
			d.weights[f] = c.weights[fi]
			d.at[f] = [2]int{ci, fi}
		}
	}
	d.ix = newFactIndex(d.facts)
	for _, q := range qs {
		var r dbRef
		for _, c := range clusters {
			m := minimaOf(q, c)
			r.rho += m.rho
			r.wrho += m.wrho
			r.best = append(r.best, m.best...)
			r.per = append(r.per, m)
		}
		d.refs[q] = r
	}
	return d
}

// responsibility is the reference responsibility of t for q: the other
// clusters' minima plus t's in-cluster part, or -1 when t can never be
// counterfactual.
func (d *refDB) responsibility(q *query, t fact) int {
	loc, ok := d.at[t]
	if !ok {
		return -1
	}
	r := d.refs[q]
	kc := clusterResponsibility(r.per[loc[0]].masks, len(d.clusters[loc[0]].facts), loc[1])
	if kc < 0 {
		return -1
	}
	return r.rho - r.per[loc[0]].rho + kc
}

// ranking is the reference top-k of q: every fact of the database that can
// be counterfactual, ordered by its reference responsibility and then by
// tuple text, cut after k entries.
func (d *refDB) ranking(q *query, k int) []rankEntry {
	var all []rankEntry
	for _, f := range d.facts {
		if r := d.responsibility(q, f); r >= 0 {
			all = append(all, rankEntry{tuple: f.String(), k: r})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].k != all[j].k {
			return all[i].k < all[j].k
		}
		return all[i].tuple < all[j].tuple
	})
	return all[:min(k, len(all))]
}

// wireWeights renders the deletion costs above 1 (unlisted facts cost 1).
func (d *refDB) wireWeights() map[string]int64 {
	out := map[string]int64{}
	for f, w := range d.weights {
		if w > 1 {
			out[f.String()] = w
		}
	}
	return out
}

// warmTask is one task of the cycle with the check of its answer.
type warmTask struct {
	task   api.Task
	stream bool // NDJSON transport
	check  func(res *api.Result) error
}

// warmScenario is the warm-reads working set and task cycle.
type warmScenario struct {
	dbs   []*refDB
	tasks []*warmTask
}

func newWarmScenario(seed int64) *warmScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &warmScenario{}
	for g := 0; g < warmGroups; g++ {
		sc.addGroup(rng, fmt.Sprintf("w%d", g))
	}
	return sc
}

// addGroup generates one chain, one confluence and one permutation
// database and appends the full task list over them.
func (sc *warmScenario) addGroup(rng *rand.Rand, prefix string) {
	gen := func(name string, kind shapeKind, primary *query, qs ...*query) *refDB {
		cs := genClusters(rng, kind, prefix+name, primary, warmFacts)
		return newRefDB(prefix+name, cs, append([]*query{primary}, qs...)...)
	}
	chain := gen("chain", shapeChain, qChain, q3Chain)
	conf := gen("conf", shapeConf, qACconf, qAC3conf)
	perm := gen("perm", shapePerm, qAperm, qABperm, qA3permR)
	sc.dbs = append(sc.dbs, chain, conf, perm)
	add := func(wt *warmTask) { sc.tasks = append(sc.tasks, wt) }

	for _, q := range allQueries {
		add(&warmTask{task: api.Task{Kind: api.KindClassify, Query: q.text},
			check: func(res *api.Result) error { return checkClassify(q, res) }})
	}
	solve := func(d *refDB, q *query, weighted bool) {
		t := api.Task{Kind: api.KindSolve, Query: q.text, DB: d.name}
		ref := d.refs[q]
		var w map[fact]int64
		if weighted {
			t.Weights, w = d.wireWeights(), d.weights
		}
		add(&warmTask{task: t, check: func(res *api.Result) error {
			return checkSolve(q, d.ix, res, ref.rho, w, ref.wrho)
		}})
	}
	solve(chain, qChain, false)
	solve(chain, q3Chain, false)
	solve(conf, qACconf, false)
	solve(conf, qAC3conf, false)
	solve(perm, qAperm, false)
	solve(perm, qABperm, false)
	solve(perm, qA3permR, false)
	solve(chain, qChain, true)
	solve(conf, qAC3conf, true)

	// Responsibility probes: facts of distinct clusters that can be
	// counterfactual.
	ref := chain.refs[qChain]
	probes := 0
	for _, ci := range rng.Perm(len(chain.clusters)) {
		if probes == warmProbes {
			break
		}
		c := chain.clusters[ci]
		t := c.facts[rng.Intn(len(c.facts))]
		k := chain.responsibility(qChain, t)
		if k < 0 {
			continue
		}
		probes++
		add(&warmTask{task: api.Task{Kind: api.KindResponsibility, Query: qChain.text, DB: chain.name, Tuple: t.String()},
			check: func(res *api.Result) error {
				if res.NotCounterfactual || res.Tuple != t.String() {
					return fmt.Errorf("responsibility of %s answered for %s (not counterfactual: %v)", t, res.Tuple, res.NotCounterfactual)
				}
				return checkCounterfactual(qChain, chain.ix, res.Tuple, int64(res.K), res.Contingency, k)
			}})
	}
	top := chain.ranking(qChain, warmTopK)
	for _, stream := range []bool{true, false} {
		add(&warmTask{task: api.Task{Kind: api.KindTopKResponsibility, Query: qChain.text, DB: chain.name, K: warmTopK}, stream: stream,
			check: func(res *api.Result) error { return checkTopK(qChain, chain.ix, res.Ranked, top) }})
	}
	enumerate := func(q *query, stream bool) {
		r := chain.refs[q]
		add(&warmTask{task: api.Task{Kind: api.KindEnumerate, Query: q.text, DB: chain.name, MaxSets: warmMaxSets}, stream: stream,
			check: func(res *api.Result) error {
				return checkEnumerate(q, chain.ix, res.Rho, res.Total, res.Sets, r.rho, warmMaxSets)
			}})
	}
	enumerate(qChain, true)
	enumerate(q3Chain, false)
	for _, k := range []int{ref.rho, ref.rho - 1} {
		add(&warmTask{task: api.Task{Kind: api.KindDecide, Query: qChain.text, DB: chain.name, K: k},
			check: func(res *api.Result) error { return checkDecide(qChain, res, k, ref.rho) }})
	}
	gamma := factStrings(ref.best)
	for _, g := range [][]string{gamma, gamma[1:]} {
		valid := len(g) == len(gamma)
		add(&warmTask{task: api.Task{Kind: api.KindVerifyContingency, Query: qChain.text, DB: chain.name, Gamma: g},
			check: func(res *api.Result) error { return checkVerify(qChain, res, valid) }})
	}
}

// doTask runs one task through the SDK; a streamed task's partial lines
// are folded into its final line.
func doTask(c *client.Client, t api.Task, stream bool) (*api.Result, error) {
	ctx, cancel := waitCtx()
	defer cancel()
	if !stream {
		return c.Do(ctx, t)
	}
	var sets [][]string
	var ranked []api.RankedTuple
	var final *api.Result
	err := c.Stream(ctx, t, func(r *api.Result) error {
		if r.Partial {
			sets = append(sets, r.Sets...)
			ranked = append(ranked, r.Ranked...)
			return nil
		}
		final = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	if final == nil {
		return nil, fmt.Errorf("%s stream ended without a final line", t.Kind)
	}
	final.Sets, final.Ranked = sets, ranked
	return final, nil
}

// answerBook keeps each task's distinct answers, so every answer is
// checked once after the timed phase however often it was served.
type answerBook struct {
	mu   sync.Mutex
	seen []map[string]*api.Result
}

func newAnswerBook(n int) *answerBook {
	b := &answerBook{seen: make([]map[string]*api.Result, n)}
	for i := range b.seen {
		b.seen[i] = map[string]*api.Result{}
	}
	return b
}

func (b *answerBook) add(task int, res *api.Result) error {
	norm := *res
	norm.ElapsedMS, norm.CacheHit, norm.Method = 0, false, ""
	key, err := json.Marshal(&norm)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.seen[task][string(key)] == nil {
		b.seen[task][string(key)] = res
	}
	return nil
}

func runWarmReads(cfg config) (*output, error) {
	sc := newWarmScenario(cfg.seed)
	bin, err := buildDaemon(cfg.root)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	c := newClient(d.url, cfg.clients)
	if err := registerAll(c, sc.dbs); err != nil {
		return nil, err
	}
	// Warm-up: one pass of the cycle fills the caches; its answers are
	// checked like every other.
	book := newAnswerBook(len(sc.tasks))
	for i, wt := range sc.tasks {
		res, err := doTask(c, wt.task, wt.stream)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s %s: %w", wt.task.Kind, wt.task.Query, err)
		}
		if err := book.add(i, res); err != nil {
			return nil, err
		}
	}
	m := map[string]metric{"setup_s": {time.Since(d.start).Seconds(), "s"}}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	lr, err := closedLoop(cfg.clients, cfg.seconds, func(_, i int) (time.Duration, error) {
		wt := sc.tasks[i%len(sc.tasks)]
		t0 := time.Now()
		res, err := doTask(c, wt.task, wt.stream)
		took := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", wt.task.Kind, wt.task.Query, err)
		}
		return took, book.add(i%len(sc.tasks), res)
	})
	if err != nil {
		return nil, err
	}
	if err := latencyMetrics(lr, m); err != nil {
		return nil, err
	}
	if err := d.usage(cpu0, len(lr.lat), m); err != nil {
		return nil, err
	}
	var errs []error
	for i, wt := range sc.tasks {
		for _, res := range book.seen[i] {
			if err := wt.check(res); err != nil {
				errs = append(errs, fmt.Errorf("%s task %d: %w", wt.task.Kind, i, err))
			}
		}
	}
	return report(lr, errs, m), nil
}

// registerAll uploads every database of a scenario.
func registerAll(c *client.Client, dbs []*refDB) error {
	for _, d := range dbs {
		ctx, cancel := waitCtx()
		_, err := c.PutDB(ctx, d.name, factStrings(d.facts))
		cancel()
		if err != nil {
			return fmt.Errorf("registering %s: %w", d.name, err)
		}
	}
	return nil
}
