package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"testing"

	"repro/api"
	"repro/internal/server"
)

// The checks must accept the program's real answers and reject each
// deliberately corrupted one.

func TestEvaluatorOnChain(t *testing.T) {
	fs := []fact{{rel: "R", a: "a", b: "b"}, {rel: "R", a: "b", b: "c"}, {rel: "R", a: "c", b: "d"}}
	masks := witnessMasks(qChain, fs)
	if len(masks) != 2 {
		t.Fatalf("qchain over a 3-edge path: %d witnesses, want 2", len(masks))
	}
	rho, _, best := bruteMinima(masks, fs, []int64{1, 1, 1})
	if rho != 1 || len(best) != 1 || best[0] != fs[1] {
		t.Fatalf("rho %d best %v, want 1 [R(b,c)]", rho, best)
	}
	ix := newFactIndex(fs)
	if !ix.holds(qChain, nil) || ix.holds(qChain, map[fact]bool{fs[1]: true}) {
		t.Fatal("holds disagrees with the witnesses")
	}
	// R(b,c) lies in both witnesses, so the empty contingency makes it
	// counterfactual; R(a,b) needs R(c,d) deleted first.
	if k := clusterResponsibility(masks, len(fs), 1); k != 0 {
		t.Fatalf("responsibility of R(b,c) = %d, want 0", k)
	}
	if k := clusterResponsibility(masks, len(fs), 0); k != 1 {
		t.Fatalf("responsibility of R(a,b) = %d, want 1", k)
	}
}

// servedGroup registers one warm-reads group on an in-process Session and
// returns its databases and a way to run tasks.
func servedGroup(t *testing.T) (*warmScenario, func(api.Task) *api.Result) {
	t.Helper()
	sc := &warmScenario{}
	sc.addGroup(rand.New(rand.NewSource(7)), "t")
	sess := api.NewSession(api.Config{Engine: engineConfig()})
	for _, d := range sc.dbs {
		if _, err := sess.RegisterFacts(d.name, factStrings(d.facts)); err != nil {
			t.Fatal(err)
		}
	}
	return sc, func(task api.Task) *api.Result {
		res, err := sess.Do(context.Background(), task)
		if err != nil {
			t.Fatalf("%s: %v", task.Kind, err)
		}
		return res
	}
}

func TestChecksAcceptServedAnswers(t *testing.T) {
	sc, do := servedGroup(t)
	for i, wt := range sc.tasks {
		if err := wt.check(do(wt.task)); err != nil {
			t.Errorf("task %d (%s): %v", i, wt.task.Kind, err)
		}
	}
}

func TestCheckSolveRejectsGammaMissingTuple(t *testing.T) {
	sc, do := servedGroup(t)
	chain := sc.dbs[0]
	ref := chain.refs[qChain]
	res := do(api.Task{Kind: api.KindSolve, Query: qChain.text, DB: chain.name})
	res.Contingency = res.Contingency[1:]
	if err := checkSolve(qChain, chain.ix, res, ref.rho, nil, 0); err == nil {
		t.Fatal("accepted a contingency set missing a tuple")
	}
}

func TestCheckSolveRejectsRhoOffByOne(t *testing.T) {
	sc, do := servedGroup(t)
	chain := sc.dbs[0]
	ref := chain.refs[qChain]
	for _, delta := range []int{-1, 1} {
		res := do(api.Task{Kind: api.KindSolve, Query: qChain.text, DB: chain.name})
		res.Rho += delta
		if err := checkSolve(qChain, chain.ix, res, ref.rho, nil, 0); err == nil {
			t.Fatalf("accepted rho off by %d", delta)
		}
	}
	// A weighted answer whose cost is off by one.
	res := do(api.Task{Kind: api.KindSolve, Query: qChain.text, DB: chain.name, Weights: chain.wireWeights()})
	res.Cost++
	if err := checkSolve(qChain, chain.ix, res, 0, chain.weights, ref.wrho); err == nil {
		t.Fatal("accepted a weighted cost off by one")
	}
}

// TestCheckTopKRejectsWrongRankings corrupts a served ranking three ways:
// two entries swapped, the list cut short, and the last entry replaced by a
// tuple that is counterfactual, with its own served responsibility answer,
// but has a larger k than the entry it replaces, so that every entry is
// counterfactual and the list is ordered, yet it is not the top k.
func TestCheckTopKRejectsWrongRankings(t *testing.T) {
	sc, do := servedGroup(t)
	chain := sc.dbs[0]
	var topk *warmTask
	for _, wt := range sc.tasks {
		if wt.task.Kind == api.KindTopKResponsibility {
			topk = wt
			break
		}
	}
	served := func() []api.RankedTuple {
		res := do(topk.task)
		if err := topk.check(res); err != nil {
			t.Fatalf("served ranking rejected: %v", err)
		}
		if len(res.Ranked) != warmTopK {
			t.Fatalf("served ranking has %d entries, want %d", len(res.Ranked), warmTopK)
		}
		return res.Ranked
	}
	rejects := func(what string, r []api.RankedTuple) {
		t.Helper()
		if err := topk.check(&api.Result{Ranked: r}); err == nil {
			t.Errorf("accepted a ranking %s", what)
		}
	}

	r := served()
	r[0], r[len(r)-1] = r[len(r)-1], r[0]
	r[0].Rank, r[len(r)-1].Rank = 1, len(r)
	rejects("out of order", r)

	rejects("shorter than k", served()[:1])

	r = served()
	last := r[len(r)-1]
	var worse *rankEntry
	for _, e := range chain.ranking(qChain, len(chain.facts)) {
		if int64(e.k) > last.K {
			worse = &e
			break
		}
	}
	if worse == nil {
		t.Fatalf("no counterfactual tuple with k > %d", last.K)
	}
	resp := do(api.Task{Kind: api.KindResponsibility, Query: qChain.text, DB: chain.name, Tuple: worse.tuple})
	if err := checkCounterfactual(qChain, chain.ix, resp.Tuple, int64(resp.K), resp.Contingency, worse.k); err != nil {
		t.Fatalf("replacement entry is not a valid responsibility answer: %v", err)
	}
	r[len(r)-1] = api.RankedTuple{Rank: last.Rank, Tuple: resp.Tuple, K: int64(resp.K), Contingency: resp.Contingency}
	rejects("with a less responsible tuple in place of the last entry", r)
}

func TestChecksRejectFlippedAnswers(t *testing.T) {
	sc, do := servedGroup(t)
	corrupt := map[api.Kind]func(*api.Result){
		api.KindDecide:            func(r *api.Result) { r.Holds = !r.Holds },
		api.KindVerifyContingency: func(r *api.Result) { r.Valid = !r.Valid },
		api.KindResponsibility:    func(r *api.Result) { r.K++ },
		api.KindEnumerate:         func(r *api.Result) { r.Sets[0] = r.Sets[0][1:] },
		api.KindClassify: func(r *api.Result) {
			r.Verdict = map[string]string{"PTIME": "NP-complete", "NP-complete": "PTIME"}[r.Verdict]
		},
	}
	for i, wt := range sc.tasks {
		f := corrupt[wt.task.Kind]
		if f == nil {
			continue
		}
		res := do(wt.task)
		f(res)
		if err := wt.check(res); err == nil {
			t.Errorf("task %d (%s %s): accepted a corrupted answer", i, wt.task.Kind, wt.task.Query)
		}
	}
}

func TestCheckWatchLineRejectsStaleVersion(t *testing.T) {
	line := &api.Result{Kind: api.KindWatch, Version: 40, Rho: 7}
	if err := checkWatchLine(line, 40, 7); err != nil {
		t.Fatal(err)
	}
	if err := checkWatchLine(line, 42, 7); err == nil {
		t.Fatal("accepted a stale watch version")
	}
	if err := checkWatchLine(line, 40, 8); err == nil {
		t.Fatal("accepted a watch line with the wrong rho")
	}
}

// TestCheckRecoveredRejectsMissingLastBatch restarts a durable
// in-process server and compares the recovered database with the model,
// then with models one batch ahead: against those, the recovered database
// misses its last batch.
func TestCheckRecoveredRejectsMissingLastBatch(t *testing.T) {
	m := newLiveScenario(3).model
	dir := t.TempDir()
	open := func() (*server.Server, *httptest.Server) {
		srv, err := server.Open(server.Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv)
	}
	srv, ts := open()
	c := newClient(ts.URL, 1)
	ctx := context.Background()
	info, err := c.PutDB(ctx, liveDB, factStrings(m.facts()))
	if err != nil {
		t.Fatal(err)
	}
	m.version = info.Version
	for i := 0; i < 5; i++ {
		if _, err := c.MutateDB(ctx, liveDB, m.next()); err != nil {
			t.Fatal(err)
		}
	}
	ts.Close()
	srv.Close()

	srv, ts = open()
	defer srv.Close()
	defer ts.Close()
	c = newClient(ts.URL, 1)
	if err := checkRecoveredDB(c, m); err != nil {
		t.Fatalf("faithful recovery rejected: %v", err)
	}
	seen := map[api.MutationOp]bool{}
	for k := int64(0); k < 20; k++ {
		ahead := *m
		ahead.clusters = append([]liveCluster(nil), m.clusters...)
		ahead.rng = rand.New(rand.NewSource(k))
		seen[ahead.next()[0].Op] = true
		if err := checkRecoveredDB(c, &ahead); err == nil {
			t.Fatal("accepted a recovered database missing the last batch")
		}
	}
	if !seen[api.MutationInsert] || !seen[api.MutationDelete] {
		t.Fatalf("missing last batches covered only %v", seen)
	}

	// Models at the recovered version whose fact sets differ: one cluster
	// toggled (the fact count differs), and one cluster toggled on with
	// another toggled off (the same count, but a model fact is missing from
	// the database). Only the fact comparison can reject these.
	on, off := -1, -1
	for ci, c := range m.clusters {
		if c.on && on < 0 {
			on = ci
		}
		if !c.on && off < 0 {
			off = ci
		}
	}
	if on < 0 || off < 0 {
		t.Fatal("the model has no cluster in each state")
	}
	for _, toggles := range [][]int{{off}, {on}, {on, off}} {
		other := *m
		other.clusters = append([]liveCluster(nil), m.clusters...)
		for _, ci := range toggles {
			other.toggle(ci)
		}
		other.version = m.version
		if err := checkRecoveredDB(c, &other); err == nil {
			t.Fatalf("accepted a recovered database whose facts differ from the model (clusters %v toggled)", toggles)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json's per-layer list
// in step with the metrics a traced run prints.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run prints %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, lm := range layerMetrics {
		if spec.PerLayer[i].Name != lm.name || spec.PerLayer[i].Unit != lm.unit {
			t.Errorf("per_layer[%d] = %s (%s), traced run prints %s (%s)", i, spec.PerLayer[i].Name, spec.PerLayer[i].Unit, lm.name, lm.unit)
		}
	}
}
