package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/api"
	"repro/client"
)

// live-updates: writes against a durable daemon. The live database holds
// many clusters; each PATCH batch toggles one cluster's two-fact extension
// in or out. The extension adds a witness that only its own facts can hit,
// so every batch moves ρ by at least one, and the watcher (one watch
// stream on qchain) emits a line per batch. The store, the database clone,
// IR delta migration, the component cache and the watch stream do the
// work; IR build and search do almost none.

const (
	liveFacts         = 2000 // facts of the live database
	liveExtraDBs      = 3    // further registered databases in the journal
	liveExtraFacts    = 300  // facts of each
	liveJournal       = 300  // batches journaled before the timed phase
	liveSnapshotEvery = 256  // the daemon's -snapshot-every
	liveDB            = "live"
)

// liveCluster is one cluster of the live database: its base facts, the
// extension a batch toggles, and ρ without and with the extension.
type liveCluster struct {
	base, ext []fact
	rho       [2]int
	on        bool
}

// liveModel is the benchmark's own model of the live database.
type liveModel struct {
	clusters []liveCluster
	version  uint64
	rho      int
	rng      *rand.Rand // picks the cluster of the next batch
}

// liveScenario is everything live-updates generates from the seed.
type liveScenario struct {
	model  *liveModel
	extras []*refDB
}

func newLiveScenario(seed int64) *liveScenario {
	rng := rand.New(rand.NewSource(seed))
	m := &liveModel{rng: rand.New(rand.NewSource(seed + 1))}
	for i, n := 0, 0; n < liveFacts; i++ {
		prefix := fmt.Sprintf("l%d", i)
		c := genCluster(rng, shapeChain, prefix, qChain)
		n += len(c.facts)
		// The extension hangs a two-edge path off one of the cluster's
		// constants: a new witness of its own facts only.
		anchor := c.facts[rng.Intn(len(c.facts))].a
		ext := []fact{{rel: "R", a: anchor, b: prefix + "x0"}, {rel: "R", a: prefix + "x0", b: prefix + "x1"}}
		lc := liveCluster{base: c.facts, ext: ext}
		lc.rho[0] = minimaOf(qChain, c).rho
		lc.rho[1] = minimaOf(qChain, cluster{facts: append(append([]fact(nil), c.facts...), ext...), weights: make([]int64, len(c.facts)+2)}).rho
		m.clusters = append(m.clusters, lc)
		m.rho += lc.rho[0]
	}
	sc := &liveScenario{model: m}
	for i := 0; i < liveExtraDBs; i++ {
		name := fmt.Sprintf("extra%d", i)
		sc.extras = append(sc.extras, newRefDB(name, genClusters(rng, shapeChain, name, qChain, liveExtraFacts)))
	}
	return sc
}

// facts returns the model's current fact set.
func (m *liveModel) facts() []fact {
	var out []fact
	for _, c := range m.clusters {
		out = append(out, c.base...)
		if c.on {
			out = append(out, c.ext...)
		}
	}
	return out
}

// next draws the cluster of the next batch and toggles it.
func (m *liveModel) next() []api.Mutation { return m.toggle(m.rng.Intn(len(m.clusters))) }

// warmUp is the order in which the set-up toggles every cluster once.
// After it the component cache holds both states of every cluster, so the
// timed phase starts in its steady state instead of paying first-toggle
// misses that fade as the run goes on.
func (m *liveModel) warmUp(seed int64) []int {
	return rand.New(rand.NewSource(seed + 2)).Perm(len(m.clusters))
}

// toggle flips cluster ci's extension in the model and returns the batch
// that does the same to the database.
func (m *liveModel) toggle(ci int) []api.Mutation {
	c := &m.clusters[ci]
	op := api.MutationInsert
	if c.on {
		op = api.MutationDelete
	}
	muts := make([]api.Mutation, len(c.ext))
	for i, f := range c.ext {
		muts[i] = api.Mutation{Op: op, Fact: f.String()}
	}
	m.rho -= c.rho[b2i(c.on)]
	c.on = !c.on
	m.rho += c.rho[b2i(c.on)]
	m.version += uint64(len(muts))
	return muts
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// daemonArgs are the flags of every live-updates daemon: durable state in
// dir with the default fsync=batch, snapshots every liveSnapshotEvery
// journaled records.
func daemonArgs(dir string) []string {
	return []string{"-data-dir", dir, "-snapshot-every", strconv.Itoa(liveSnapshotEvery)}
}

// prepareJournal registers the live and extra databases on a daemon over
// dir, journals liveJournal batches, and SIGKILLs the daemon, so that the
// next start recovers from a snapshot plus a WAL tail.
func prepareJournal(bin, dir string, sc *liveScenario) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	d, err := startDaemon(bin, daemonArgs(dir)...)
	if err != nil {
		return err
	}
	defer d.kill()
	c := newClient(d.url, 1)
	ctx, cancel := waitCtx()
	defer cancel()
	info, err := c.PutDB(ctx, liveDB, factStrings(sc.model.facts()))
	if err != nil {
		return fmt.Errorf("registering %s: %w", liveDB, err)
	}
	sc.model.version = info.Version
	if err := registerAll(c, sc.extras); err != nil {
		return err
	}
	for i := 0; i < liveJournal; i++ {
		if _, err := c.MutateDB(ctx, liveDB, sc.model.next()); err != nil {
			return fmt.Errorf("journal batch %d: %w", i, err)
		}
	}
	return nil
}

// watcher holds one watch stream and hands its lines to the writer.
type watcher struct {
	lines  chan *api.Result
	errc   chan error
	cancel context.CancelFunc
	once   sync.Once
}

func startWatcher(c *client.Client) *watcher {
	ctx, cancel := context.WithCancel(context.Background())
	w := &watcher{lines: make(chan *api.Result), errc: make(chan error, 1), cancel: cancel}
	go func() {
		w.errc <- c.Watch(ctx, api.Task{Kind: api.KindWatch, Query: qChain.text, DB: liveDB}, func(r *api.Result) error {
			select {
			case w.lines <- r:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()
	return w
}

// line waits for the next watch line.
func (w *watcher) line() (*api.Result, error) {
	select {
	case r := <-w.lines:
		return r, nil
	case err := <-w.errc:
		w.errc <- err
		return nil, fmt.Errorf("watch ended: %v", err)
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("no watch line within 60s")
	}
}

// stop ends the stream and waits for the watch goroutine to return. Safe
// to call more than once.
func (w *watcher) stop() {
	w.once.Do(func() {
		w.cancel()
		<-w.errc
	})
}

func runLiveUpdates(cfg config) (*output, error) {
	sc := newLiveScenario(cfg.seed)
	bin, err := buildDaemon(cfg.root)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.root, buildDir, fmt.Sprintf("live-data-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	if err := prepareJournal(bin, dir, sc); err != nil {
		return nil, err
	}
	m := sc.model

	d, err := startDaemon(bin, daemonArgs(dir)...)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	c := newClient(d.url, 2) // the watch stream and the writer
	w := startWatcher(c)
	defer w.stop()
	first, err := w.line()
	if err != nil {
		return nil, err
	}
	var errs []error
	if err := checkWatchLine(first, m.version, m.rho); err != nil {
		errs = append(errs, fmt.Errorf("recovered snapshot line: %w", err))
	}
	// Warm-up batches, checked like the timed ones, end the set-up.
	warm := m.warmUp(cfg.seed)
	for i, ci := range warm {
		if _, err := liveBatch(c, w, m, m.toggle(ci), i, &errs); err != nil {
			return nil, err
		}
	}
	metrics := map[string]metric{"setup_s": {time.Since(d.start).Seconds(), "s"}}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	// One writer: each batch is timed from the PATCH until the watcher
	// has received the version it produced.
	var lr loopResult
	start := time.Now()
	steal, err := startSteal(start)
	if err != nil {
		return nil, err
	}
	for time.Since(start) < cfg.seconds {
		took, err := liveBatch(c, w, m, m.next(), len(warm)+lr.attempted, &errs)
		if err != nil {
			_, _ = steal.finish() // the run has failed; only stopping the sampler matters
			return nil, err
		}
		lr.lat = append(lr.lat, took)
		lr.done = append(lr.done, time.Since(start))
		lr.attempted++
	}
	if lr.steal, err = steal.finish(); err != nil {
		return nil, err
	}
	if err := latencyMetrics(lr, metrics); err != nil {
		return nil, err
	}
	if err := d.usage(cpu0, len(lr.lat), metrics); err != nil {
		return nil, err
	}
	w.stop()
	d.kill()
	if err := checkDurable(bin, dir, m); err != nil {
		errs = append(errs, err)
	}
	return report(lr, errs, metrics), nil
}

// liveBatch sends a batch the model has already applied and waits until
// the watcher has received the version it produced, checking the PATCH
// answer and the watch line. It returns the time from the PATCH to the
// watch line. A failed PATCH ends the run: the model has moved past the
// daemon, so nothing after it could be checked.
func liveBatch(c *client.Client, w *watcher, m *liveModel, muts []api.Mutation, n int, errs *[]error) (time.Duration, error) {
	ctx, cancel := waitCtx()
	defer cancel()
	t0 := time.Now()
	info, err := c.MutateDB(ctx, liveDB, muts)
	if err != nil {
		return 0, fmt.Errorf("batch %d: %w", n, err)
	}
	line, err := w.line()
	took := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("batch %d: %w", n, err)
	}
	if info.Version != m.version {
		*errs = append(*errs, fmt.Errorf("batch %d: PATCH answered version %d, model %d", n, info.Version, m.version))
	}
	if err := checkWatchLine(line, m.version, m.rho); err != nil {
		*errs = append(*errs, fmt.Errorf("batch %d: %w", n, err))
	}
	return took, nil
}

// checkDurable restarts a daemon over dir after the SIGKILL that ended the
// timed phase and compares the recovered live database with the model.
func checkDurable(bin, dir string, m *liveModel) error {
	d, err := startDaemon(bin, daemonArgs(dir)...)
	if err != nil {
		return err
	}
	defer d.kill()
	return checkRecoveredDB(newClient(d.url, 1), m)
}

// checkRecoveredDB compares the live database a server holds with the
// model: version, fact count, and every model fact present.
func checkRecoveredDB(c *client.Client, m *liveModel) error {
	ctx, cancel := waitCtx()
	defer cancel()
	dbs, err := c.DBs(ctx)
	if err != nil {
		return err
	}
	var info api.DBInfo
	for _, in := range dbs {
		if in.Name == liveDB {
			info = in
		}
	}
	facts := factStrings(m.facts())
	// verify_contingency over the model's whole fact set answers invalid
	// as soon as one model fact is missing from the recovered database.
	res, err := c.Do(ctx, api.Task{Kind: api.KindVerifyContingency, Query: qChain.text, DB: liveDB, Gamma: facts})
	if err != nil {
		return fmt.Errorf("durability check: %w", err)
	}
	return checkRecovered(info, res.Valid, m.version, len(facts))
}
