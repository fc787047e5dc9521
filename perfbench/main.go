// Command perfbench is the repository's service benchmark. It builds
// cmd/resilserverd from the tree, runs it as its own process on a loopback
// port with its default flags, drives one workload through the client SDK,
// checks every answer, and prints one JSON line of metrics.
//
// Usage (from the repository root):
//
//	go -C perfbench run repro/perfbench --workload warm-reads --seed 1 --seconds 30 --trace 0
//
// Workloads are warm-reads, cold-solve and live-updates; see README.md. With
// --trace 1 the same generated inputs are replayed in-process instead, with
// spans around the calls into each layer, and the per-layer metrics are
// printed in place of the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
)

// buildDir holds everything a run leaves behind, relative to the root.
const buildDir = ".bench_build"

func init() {
	// Daemons are started from the main goroutine; keeping it on one OS
	// thread keeps their parent-death signal tied to a thread that lives
	// as long as the process.
	runtime.LockOSThread()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload runs with.
type config struct {
	root    string // repository root
	seed    int64
	seconds time.Duration
	clients int // closed-loop clients: one per CPU
}

func main() {
	workload := flag.String("workload", "", "warm-reads | cold-solve | live-updates")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced in-process replay printing per-layer metrics")
	flag.Parse()

	out, err := run(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(workload string, seed int64, seconds float64, trace bool) (*output, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "resilserverd")); err != nil {
		return nil, fmt.Errorf("run from the benchmark's directory inside the repository: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	removeStaleDirs(filepath.Join(root, buildDir))
	cfg := config{root: root, seed: seed, seconds: time.Duration(seconds * float64(time.Second)), clients: runtime.NumCPU()}
	type runner func(config) (*output, error)
	untraced := map[string]runner{"warm-reads": runWarmReads, "cold-solve": runColdSolve, "live-updates": runLiveUpdates}
	traced := map[string]runner{"warm-reads": traceWarmReads, "cold-solve": traceColdSolve, "live-updates": traceLiveUpdates}
	r := untraced[workload]
	if trace {
		r = traced[workload]
	}
	if r == nil {
		return nil, fmt.Errorf("unknown workload %q (want warm-reads, cold-solve or live-updates)", workload)
	}
	return r(cfg)
}

// newClient returns an SDK client that holds at most conns connections
// and never retries, so every failure is counted.
func newClient(url string, conns int) *client.Client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: tr}), client.WithRetries(0))
}

// loopResult is what a closed loop measured.
type loopResult struct {
	lat       []time.Duration // one per completed operation
	done      []time.Duration // when each completed, from the loop's start
	steal     []stealSample   // the host's steal over the timed phase
	attempted int
	failed    int
	firstErr  error
}

// closedLoop runs op on `clients` goroutines for d: each client starts its
// next operation only when the previous one has returned, taking the next
// operation index from a shared counter, and no operation starts after d.
// op returns the time its SDK calls took, which is the operation's latency;
// the benchmark's own work around them (building inputs, keeping answers
// for the checks) is not timed.
func closedLoop(clients int, d time.Duration, op func(client, i int) (time.Duration, error)) (loopResult, error) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  loopResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	steal, err := startSteal(start)
	if err != nil {
		return res, err
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat, done []time.Duration
			failed := 0
			var firstErr error
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				took, err := op(c, i)
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, took)
				done = append(done, time.Since(start))
			}
			mu.Lock()
			defer mu.Unlock()
			res.lat = append(res.lat, lat...)
			res.done = append(res.done, done...)
			res.attempted += len(lat) + failed
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
		}(c)
	}
	wg.Wait()
	res.steal, err = steal.finish()
	return res, err
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// minTimed is the fewest operations the latency quantiles may rest on, so
// that ten samples lie beyond p99.
const minTimed = 1000

// latencyMetrics fills the throughput and latency metrics of a loop from
// the windows keptWindows keeps, those in which the host took least. Each
// operation belongs to the window in which it completed: ops_per_s is the
// number of operations completed in kept windows over their length, and
// the latency quantiles are taken over those operations.
func latencyMetrics(r loopResult, m map[string]metric) error {
	if len(r.lat) == 0 {
		return fmt.Errorf("no operation completed: %v", r.firstErr)
	}
	keep, threshold := keptWindows(r.steal, r.done, minTimed)
	if keep == nil {
		return fmt.Errorf("the timed phase is shorter than one %v window", stealWindow)
	}
	var span time.Duration
	kept := 0
	for w, k := range keep {
		if k {
			span += r.steal[w+1].at - r.steal[w].at
			kept++
		}
	}
	var lats []time.Duration
	for i, at := range r.done {
		if w := windowOf(r.steal, at); w >= 0 && keep[w] {
			lats = append(lats, r.lat[i])
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: kept %d of %d windows of %v (host steal at most %d ticks each, %d ticks over the timed phase), holding %d operations\n",
		kept, len(keep), stealWindow, threshold, r.steal[len(r.steal)-1].ticks-r.steal[0].ticks, len(lats))
	if len(lats) < minTimed {
		fmt.Fprintf(os.Stderr, "perfbench: p99 rests on %d operations, fewer than %d\n", len(lats), minTimed)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	m["ops_per_s"] = metric{float64(len(lats)) / span.Seconds(), "ops/s"}
	m["latency_p50_ms"] = metric{ms(quantile(lats, 0.50)), "ms"}
	m["latency_p99_ms"] = metric{ms(quantile(lats, 0.99)), "ms"}
	return nil
}

// report assembles the final line, logging the first failure and check
// error to stderr.
func report(r loopResult, checkErrs []error, m map[string]metric) *output {
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", r.failed, r.attempted, r.firstErr)
	}
	for i, err := range checkErrs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more check failures\n", len(checkErrs)-5)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	return &output{Correct: len(checkErrs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// removeStaleDirs deletes the data directories of earlier runs whose
// process no longer exists (a run killed before its own clean-up).
func removeStaleDirs(dir string) {
	stale, _ := filepath.Glob(filepath.Join(dir, "live-*-*")) // the pattern is well-formed
	for _, p := range stale {
		pid := p[strings.LastIndexByte(p, '-')+1:]
		if _, err := os.Stat("/proc/" + pid); os.IsNotExist(err) {
			os.RemoveAll(p)
		}
	}
}
