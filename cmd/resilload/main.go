// Command resilload drives a running resilserverd with mixed synthetic
// workloads and reports latency percentiles. It is the serving-layer
// counterpart of the benchmark harness: where bench_test.go measures the
// solvers in-process, resilload measures the whole service — HTTP, JSON,
// admission control, the classification cache, and the cross-request
// witness-IR cache — under concurrency.
//
// It speaks the v1 task API through the client SDK (package
// repro/client): scenario databases are registered with PutDB, the
// request mix is a stream of api.Task envelopes through Do, and the
// closing /metrics snapshot comes from Metrics. There is no bespoke
// request encoding here — resilload exercises exactly the code path SDK
// users run.
//
// Usage:
//
//	resilserverd -addr :8080 &
//	resilload -addr http://localhost:8080 -requests 2000 -concurrency 32
//
// Flags:
//
//	-addr URL        base URL of the server (default http://localhost:8080)
//	-requests N      total solve requests to issue (default 1000)
//	-concurrency C   concurrent client workers (default 16)
//	-scenarios LIST  comma-separated subset of
//	                 chain,components,confluence,perm,linear,weighted,
//	                 topk,mutate (default: all but mutate)
//	-scale N         database size multiplier (default 1)
//	-timeout-ms T    per-request timeout_ms forwarded to the server
//	                 (default 10000)
//	-seed S          RNG seed for the scenario databases (default 1)
//	-watchers N      watch streams held open by the mutate scenario
//	                 (default 4)
//	-mutations N     PATCH batches issued by the mutate scenario
//	                 (default 200)
//
// Each scenario is one (query, database) family from internal/datagen:
// chain exercises the NP-hard portfolio path, components the
// many-component heavy-tailed hypergraphs the kernel+decompose pipeline
// splits and solves in parallel, confluence (qACconf, PTIME by
// Propositions 31/32) the network-flow solver, perm and linear the other
// specialized PTIME solvers, weighted the min-cost pipeline under skewed per-tuple
// deletion costs, and topk the shared-IR top-k responsibility ranking. The databases are registered once via PUT /v1/db/{name};
// the request mix then cycles through the scenarios, so server-side
// caches see a realistic mixture of repeated query classes. After the
// run, resilload prints per-scenario latency percentiles, the overall
// throughput, and the server's /metrics snapshot — the IR-cache hit
// counters are the quickest way to confirm the enumerate-once behavior is
// working across requests, and ir_build_ns / parallel_ir_builds /
// ir_build_shards show how much wall time the witness enumerations cost
// and how often the sharded parallel build engaged.
//
// The mutate scenario is different in shape: instead of riding the solve
// mix it parks -watchers watch streams on a many-component database and
// drives -mutations serialized PATCH batches against it, each changing
// the answer. It reports update-to-notification latency percentiles —
// PATCH issued to watch line received — which covers the atomic apply,
// the IR delta-migration, the dirty-component re-solve, and the stream
// flush. The ir_migrations and comp_cache_hits counters in the closing
// /metrics snapshot confirm the incremental path (not a full rebuild)
// served the notifications.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/api"
	"repro/client"
	"repro/internal/datagen"
)

type scenario struct {
	name    string
	query   string
	facts   []string
	kind    api.Kind         // task kind; empty means solve
	k       int              // ranking size for top_k_responsibility
	weights map[string]int64 // per-tuple costs; nil means cardinality
}

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "base URL of the server")
		requests    = flag.Int("requests", 1000, "total solve requests to issue")
		concurrency = flag.Int("concurrency", 16, "concurrent client workers")
		scenarios   = flag.String("scenarios", "chain,components,confluence,perm,linear,weighted,topk", "comma-separated scenario subset")
		scale       = flag.Int("scale", 1, "database size multiplier")
		timeoutMS   = flag.Int64("timeout-ms", 10000, "per-request timeout_ms forwarded to the server")
		seed        = flag.Int64("seed", 1, "RNG seed for scenario databases")
		watchers    = flag.Int("watchers", 4, "watch streams held open by the mutate scenario")
		mutations   = flag.Int("mutations", 200, "PATCH batches issued by the mutate scenario")
	)
	flag.Parse()

	solveList, doMutate := splitMutate(*scenarios)
	var mix []scenario
	if solveList != "" {
		var err error
		if mix, err = buildScenarios(solveList, *scale, *seed); err != nil {
			fatal(err)
		}
	}
	// Retries off: resilload counts 429s itself — the load generator must
	// observe shedding, not paper over it.
	cl := client.New(*addr,
		client.WithRetries(0),
		client.WithHTTPClient(&http.Client{Timeout: 2 * time.Duration(*timeoutMS) * time.Millisecond}))
	ctx := context.Background()

	var solveFailed int64
	if len(mix) > 0 {
		solveFailed = runSolvePhase(ctx, cl, mix, *addr, *requests, *concurrency, *timeoutMS)
	}
	if doMutate {
		if err := runMutateScenario(ctx, cl, *scale, *seed, *watchers, *mutations); err != nil {
			fatal(err)
		}
	}

	if err := printMetrics(cl); err != nil {
		fmt.Fprintf(os.Stderr, "resilload: metrics: %v\n", err)
	}
	if solveFailed > 0 {
		os.Exit(1)
	}
}

// splitMutate pulls the special "mutate" scenario out of the scenario
// list: it has its own driver (serialized PATCH batches under watch
// streams) rather than riding the solve request mix.
func splitMutate(list string) (solveList string, doMutate bool) {
	var rest []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "mutate" {
			doMutate = true
			continue
		}
		if name != "" {
			rest = append(rest, name)
		}
	}
	return strings.Join(rest, ","), doMutate
}

// runSolvePhase registers the scenario databases and fires the solve
// request mix, printing per-scenario latency percentiles. It returns the
// number of failed (non-429) requests.
func runSolvePhase(ctx context.Context, cl *client.Client, mix []scenario, addr string, requests, concurrency int, timeoutMS int64) int64 {
	for _, sc := range mix {
		if _, err := cl.PutDB(ctx, sc.name, sc.facts); err != nil {
			fatal(fmt.Errorf("registering %s: %w", sc.name, err))
		}
		fmt.Printf("registered db %-12s %5d facts  query %s\n", sc.name, len(sc.facts), sc.query)
	}

	fmt.Printf("\nfiring %d requests at %s with %d workers...\n", requests, addr, concurrency)
	lats := make(map[string][]time.Duration, len(mix))
	for _, sc := range mix {
		lats[sc.name] = nil
	}
	var (
		mu       sync.Mutex
		rejected atomic.Int64
		failed   atomic.Int64
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				sc := mix[i%len(mix)]
				kind := sc.kind
				if kind == "" {
					kind = api.KindSolve
				}
				t0 := time.Now()
				_, err := cl.Do(ctx, api.Task{
					Kind:      kind,
					Query:     sc.query,
					DB:        sc.name,
					K:         sc.k,
					Weights:   sc.weights,
					TimeoutMS: timeoutMS,
				})
				took := time.Since(t0)
				switch {
				case err == nil:
					mu.Lock()
					lats[sc.name] = append(lats[sc.name], took)
					mu.Unlock()
				case errors.Is(err, api.ErrOverload):
					rejected.Add(1)
				default:
					failed.Add(1)
					fmt.Fprintf(os.Stderr, "resilload: %s: %v\n", sc.name, err)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	fmt.Printf("\n%-12s %8s %10s %10s %10s %10s\n", "scenario", "ok", "p50", "p90", "p99", "max")
	total := 0
	for _, sc := range mix {
		ds := lats[sc.name]
		total += len(ds)
		if len(ds) == 0 {
			fmt.Printf("%-12s %8d\n", sc.name, 0)
			continue
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		fmt.Printf("%-12s %8d %10v %10v %10v %10v\n", sc.name, len(ds),
			pct(ds, 50), pct(ds, 90), pct(ds, 99), ds[len(ds)-1])
	}
	fmt.Printf("\n%d ok, %d rejected (429), %d failed in %v (%.0f req/s)\n",
		total, rejected.Load(), failed.Load(), wall.Round(time.Millisecond),
		float64(total)/wall.Seconds())
	return failed.Load()
}

// buildScenarios materializes the requested scenario mix at the given
// scale. Every database is rendered to fact strings once and reused.
func buildScenarios(list string, scale int, seed int64) ([]scenario, error) {
	if scale < 1 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	all := map[string]func() scenario{
		// NP-hard: long path with chords, many overlapping witnesses;
		// solved by the exact/SAT portfolio over one shared IR.
		"chain": func() scenario {
			return scenario{
				name:  "chain",
				query: "qchain :- R(x,y), R(y,z)",
				facts: renderFacts(datagen.ChainDB(rng, 28*scale, 10*scale)),
			}
		},
		// NP-hard, many-component: disjoint heavy-tailed chain clusters.
		// The witness hypergraph splits into one component per cluster, so
		// this is the showcase for the kernel+decompose pipeline — watch
		// components_solved and multi_component_instances in /metrics.
		"components": func() scenario {
			return scenario{
				name:  "components",
				query: "qmchain :- R(x,y), R(y,z)",
				facts: renderFacts(datagen.ManyComponentChainDB(rng, 8*scale, 3, 14)),
			}
		},
		// PTIME (Propositions 31/32, solved by network flow): A–R–R–C
		// confluences through shared middles.
		"confluence": func() scenario {
			return scenario{
				name:  "confluence",
				query: "qACconf :- A(x), R(x,y), R(z,y), C(z)",
				facts: renderFacts(datagen.ConfluenceDB(rng, 6*scale, 6*scale, 3)),
			}
		},
		// PTIME: pure permutation query, witness counting.
		"perm": func() scenario {
			return scenario{
				name:  "perm",
				query: "qperm :- R(x,y), R(y,x)",
				facts: renderFacts(datagen.PermDB(rng, 60*scale, 10*scale, 50*scale)),
			}
		},
		// PTIME: self-join-free linear query, network flow.
		"linear": func() scenario {
			return scenario{
				name:  "linear",
				query: "qlin :- A(x), R1(x,y), R2(y,z), C(z)",
				facts: renderFacts(datagen.LinearSJFreeDB(rng, 30*scale, 80*scale)),
			}
		},
		// Min-cost: the chain workload under skewed per-tuple deletion
		// costs, exercising the weighted pipeline (weight-aware kernel,
		// weighted branch-and-bound vs weighted SAT race).
		"weighted": func() scenario {
			d := datagen.ChainDB(rng, 28*scale, 10*scale)
			return scenario{
				name:    "weighted",
				query:   "qwchain :- R(x,y), R(y,z)",
				facts:   renderFacts(d),
				weights: datagen.SkewedWeights(rng, d, 0.3, 9),
			}
		},
		// Ranking: top-k responsibility over the many-component database —
		// the per-component minima behind the ranking are solved once per
		// request and shared across every candidate tuple.
		"topk": func() scenario {
			return scenario{
				name:  "topk",
				query: "qtkchain :- R(x,y), R(y,z)",
				facts: renderFacts(datagen.ManyComponentChainDB(rng, 6*scale, 3, 12)),
				kind:  api.KindTopKResponsibility,
				k:     10,
			}
		},
	}
	var out []scenario
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		build, ok := all[name]
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (have chain, components, confluence, perm, linear, weighted, topk)", name)
		}
		out = append(out, build())
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios selected")
	}
	return out, nil
}

func renderFacts(d *repro.Database) []string {
	ts := d.AllTuples()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = d.TupleString(t)
	}
	return out
}

// pct returns the p-th percentile of sorted durations.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted) - 1) * p / 100
	return sorted[i].Round(10 * time.Microsecond)
}

func printMetrics(cl *client.Client) error {
	m, err := cl.Metrics(context.Background())
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("\nserver /metrics:")
	for _, k := range keys {
		fmt.Printf("  %-22s %v\n", k, m[k])
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "resilload:", err)
	os.Exit(1)
}
