package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/api"
)

// cold-solve: every operation uploads a database no earlier operation has
// seen and solves it under one of the paper's NP-complete queries. The
// clusters are drawn from a seeded pool of shapes whose minima are known,
// renamed onto constants of the operation's own and shuffled, so the
// interned tuple ids and hence the component fingerprints differ from every
// earlier upload: neither the IR cache (keyed on the database) nor the
// component cache (keyed on fingerprints) can answer. Each client uploads
// under its own small rotating pool of names, so every upload replaces a
// registration and retires its cached IRs. IR build, kernelization,
// decomposition and the exact-vs-SAT race do the work.

const (
	coldShapes = 1024 // cluster shapes per query
	coldFacts  = 360  // facts per uploaded database
	coldWarmUp = 96   // operations of the set-up: about 0.5 s, so that a short stall does not set setup_s
	coldNames  = 4    // rotating upload names per client
)

var coldQueries = []*query{qChain, q3Chain, qAC3conf, qABperm}

// coldShape is one cluster shape with its reference minima.
type coldShape struct {
	c cluster
	m minima
}

// coldScenario holds the shape pools, built before the daemon starts.
type coldScenario struct {
	seed  int64
	pools map[*query][]coldShape
}

func newColdScenario(seed int64) *coldScenario {
	rng := rand.New(rand.NewSource(seed))
	kinds := map[*query]shapeKind{qChain: shapeChain, q3Chain: shapeChain, qAC3conf: shapeConf, qABperm: shapePerm}
	sc := &coldScenario{seed: seed, pools: map[*query][]coldShape{}}
	for _, q := range coldQueries {
		for i := 0; i < coldShapes; i++ {
			c := genCluster(rng, kinds[q], "", q)
			sc.pools[q] = append(sc.pools[q], coldShape{c: c, m: minimaOf(q, c)})
		}
	}
	return sc
}

// coldOp is one generated operation: the upload and the solve task, with
// the reference answer summed from the shapes' minima.
type coldOp struct {
	q       *query
	facts   []fact
	weights map[fact]int64 // nil on unweighted operations
	rho     int
	wrho    int64
}

// op generates operation i; the same seed and index always give the same
// operation. Every fourth operation is weighted, and the query rotates so
// that each query is weighted in turn.
func (sc *coldScenario) op(i int) *coldOp {
	rng := rand.New(rand.NewSource(sc.seed*1_000_003 + int64(i)))
	op := &coldOp{q: coldQueries[(i+i/4)%len(coldQueries)]}
	weighted := i%4 == 3
	if weighted {
		op.weights = map[fact]int64{}
	}
	pool := sc.pools[op.q]
	for j := 0; len(op.facts) < coldFacts; j++ {
		s := pool[rng.Intn(len(pool))]
		fs := rename(s.c.facts, fmt.Sprintf("o%dk%d", i, j))
		op.facts = append(op.facts, fs...)
		op.rho += s.m.rho
		op.wrho += s.m.wrho
		if weighted {
			for fi, f := range fs {
				op.weights[f] = s.c.weights[fi]
			}
		}
	}
	rng.Shuffle(len(op.facts), func(a, b int) { op.facts[a], op.facts[b] = op.facts[b], op.facts[a] })
	return op
}

func (op *coldOp) task(name string) api.Task {
	t := api.Task{Kind: api.KindSolve, Query: op.q.text, DB: name}
	if op.weights != nil {
		t.Weights = map[string]int64{}
		for f, w := range op.weights {
			if w > 1 {
				t.Weights[f.String()] = w
			}
		}
	}
	return t
}

// check verifies a served answer against the operation's reference.
func (op *coldOp) check(res *api.Result) error {
	return checkSolve(op.q, newFactIndex(op.facts), res, op.rho, op.weights, op.wrho)
}

func runColdSolve(cfg config) (*output, error) {
	sc := newColdScenario(cfg.seed)
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

	// Operations are numbered from 0 in the timed phase; the warm-up's
	// numbers start at 1<<30, so it never repeats a timed upload.
	var mu sync.Mutex
	served := map[int]*api.Result{}
	do := func(client, i int) (time.Duration, error) {
		op := sc.op(i)
		name := fmt.Sprintf("cold-%d-%d", client, (i/cfg.clients)%coldNames)
		facts, task := factStrings(op.facts), op.task(name)
		ctx, cancel := waitCtx()
		defer cancel()
		t0 := time.Now()
		if _, err := c.PutDB(ctx, name, facts); err != nil {
			return 0, fmt.Errorf("upload %d: %w", i, err)
		}
		res, err := c.Do(ctx, task)
		took := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("solve %d (%s): %w", i, op.q.name, err)
		}
		mu.Lock()
		served[i] = res
		mu.Unlock()
		return took, nil
	}
	for i := 1 << 30; i < 1<<30+coldWarmUp; i++ {
		if _, err := do(0, i); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	m := map[string]metric{"setup_s": {time.Since(d.start).Seconds(), "s"}}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	lr, err := closedLoop(cfg.clients, cfg.seconds, do)
	if err != nil {
		return nil, err
	}
	if err := latencyMetrics(lr, m); err != nil {
		return nil, err
	}
	if err := d.usage(cpu0, len(lr.lat), m); err != nil {
		return nil, err
	}
	return report(lr, sc.checkAll(served, cfg.clients), m), nil
}

// checkAll checks every served answer against its operation's reference,
// regenerating each operation, on `workers` goroutines.
func (sc *coldScenario) checkAll(served map[int]*api.Result, workers int) []error {
	ids := make(chan int)
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				if err := sc.op(i).check(served[i]); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("operation %d: %w", i, err))
					mu.Unlock()
				}
			}
		}()
	}
	for i := range served {
		ids <- i
	}
	close(ids)
	wg.Wait()
	return errs
}
