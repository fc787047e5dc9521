package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/engine"
	"repro/internal/server"
)

// The traced run replays a workload's generated inputs in-process and
// records a span around every call the benchmark makes into a layer's
// public functions. Spans stay in memory on the one replaying goroutine
// and are written to .bench_build/spans-<workload>.json when the run ends.
// A call that would hit a cache the real request path misses runs on fresh
// state, so each span times the work the request actually does.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level call
	Op     int    `json:"op"`     // operation id; -1 for set-up calls
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer records spans from a single goroutine.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // indices of the open spans, innermost last

	allocKiB []float64 // bytes allocated per Session call
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func (tr *tracer) begin(name string) int {
	parent := 0
	if n := len(tr.open); n > 0 {
		parent = tr.spans[tr.open[n-1]].ID
	}
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Op: tr.op, Name: name, Start: int64(time.Since(tr.t0))})
	tr.open = append(tr.open, len(tr.spans)-1)
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) {
	tr.spans[i].End = int64(time.Since(tr.t0))
	tr.open = tr.open[:len(tr.open)-1]
}

// time runs f inside a span.
func (tr *tracer) time(name string, f func() error) error {
	i := tr.begin(name)
	err := f()
	tr.end(i)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// session runs one api.Session call inside a span and records the bytes
// it allocated, read from runtime.MemStats around the call. Nothing else
// runs meanwhile: the replay is sequential.
func (tr *tracer) session(name string, f func() error) error {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := tr.time(name, f)
	runtime.ReadMemStats(&b)
	tr.allocKiB = append(tr.allocKiB, float64(b.TotalAlloc-a.TotalAlloc)/1024)
	return err
}

// perOp returns, for every operation with at least one span of the given
// name, the summed duration of those spans.
func (tr *tracer) perOp(name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range tr.spans {
		if s.Name == name && s.Op >= 0 {
			out[s.Op] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// median of the per-operation sums of a span name, in the given unit.
func (tr *tracer) median(name string, unit time.Duration) float64 {
	var ds []float64
	for _, d := range tr.perOp(name) {
		ds = append(ds, float64(d)/float64(unit))
	}
	return medianOf(ds)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 1 {
		return xs[n/2]
	} else {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// transport is server.transport_ms: per operation, the time of the
// client calls named minus the time of the Session calls whose span names
// start with sessionPrefix, for the same operation.
func (tr *tracer) transport(sessionPrefix string, clientSpans ...string) float64 {
	client, session := map[int]time.Duration{}, map[int]time.Duration{}
	for _, s := range tr.spans {
		d := time.Duration(s.End - s.Start)
		switch {
		case s.Op < 0:
		case strings.HasPrefix(s.Name, sessionPrefix):
			session[s.Op] += d
		case slices.Contains(clientSpans, s.Name):
			client[s.Op] += d
		}
	}
	var ds []float64
	for op, c := range client {
		if s, ok := session[op]; ok {
			ds = append(ds, float64(c-s)/float64(time.Millisecond))
		}
	}
	return medianOf(ds)
}

// write stores the spans under the build directory.
func (tr *tracer) write(root, workload string) error {
	raw, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, buildDir, "spans-"+workload+".json"), raw, 0o644)
}

// layerMetrics names every per-layer metric with its unit. A traced run
// prints all of them; a layer its workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"server.transport_ms", "ms"},
	{"api.do_ms.solve", "ms"},
	{"api.do_ms.solve_weighted", "ms"},
	{"api.do_ms.responsibility", "ms"},
	{"api.do_ms.top_k", "ms"},
	{"api.do_ms.enumerate", "ms"},
	{"api.do_ms.decide", "ms"},
	{"api.do_ms.verify", "ms"},
	{"api.do_ms.classify", "ms"},
	{"api.register_ms", "ms"},
	{"api.mutate_ms", "ms"},
	{"api.watch_resolve_ms", "ms"},
	{"api.alloc_kb_per_op", "KiB"},
	{"db.clone_ms", "ms"},
	{"db.freeze_ms", "ms"},
	{"cq.parse_us", "us"},
	{"core.classify_us", "us"},
	{"engine.class_cache_hit_ratio", "ratio"},
	{"engine.ir_cache_hit_ratio", "ratio"},
	{"engine.comp_cache_hit_ratio", "ratio"},
	{"engine.migrate_ms", "ms"},
	{"engine.solve_cold_ms", "ms"},
	{"engine.solver_useful_ratio", "ratio"},
	{"witset.ir_build_ms", "ms"},
	{"witset.decompose_ms", "ms"},
	{"witset.kernel_ms", "ms"},
	{"witset.components_per_op", "count"},
	{"witset.kernel_reduced_per_op", "count"},
	{"witset.fingerprint_ms", "ms"},
	{"witset.apply_delta_ms", "ms"},
	{"resilience.solve_exact_ms", "ms"},
	{"resilience.solve_exact_weighted_ms", "ms"},
	{"cnfenc.solve_sat_ms", "ms"},
	{"resilience.solve_flow_ms", "ms"},
	{"resilience.responsibility_ms", "ms"},
	{"resilience.top_k_ms", "ms"},
	{"resilience.enumerate_ms", "ms"},
	{"store.wal_append_us", "us"},
	{"store.bytes_per_op", "count"},
	{"store.fsyncs_per_op", "count"},
	{"store.snapshot_ms", "ms"},
	{"store.recovery_ms", "ms"},
	{"store.replayed_records", "count"},
}

// spanMetrics maps per-layer metrics to the span whose per-operation
// median they report.
var spanMetrics = map[string]string{
	"api.register_ms":                    "api.Session.RegisterFacts",
	"api.mutate_ms":                      "api.Session.MutateDB",
	"api.watch_resolve_ms":               "api.watch.resolve",
	"cq.parse_us":                        "cq.Parse",
	"core.classify_us":                   "core.Classify",
	"db.clone_ms":                        "db.Database.Clone",
	"db.freeze_ms":                       "db.Database.Freeze",
	"engine.migrate_ms":                  "engine.Engine.MigrateIRs",
	"engine.solve_cold_ms":               "engine.Engine.Solve",
	"witset.ir_build_ms":                 "witset.BuildWith",
	"witset.decompose_ms":                "witset.Instance.Components",
	"witset.kernel_ms":                   "witset.KernelizeCtx",
	"witset.fingerprint_ms":              "witset.Instance.ComponentKey",
	"witset.apply_delta_ms":              "witset.ApplyDelta",
	"resilience.solve_exact_ms":          "resilience.SolveFamily",
	"resilience.solve_exact_weighted_ms": "resilience.SolveFamilyWeighted",
	"cnfenc.solve_sat_ms":                "cnfenc.IncrementalSolver",
	"resilience.solve_flow_ms":           "resilience.SolveClassifiedCtx",
	"resilience.responsibility_ms":       "resilience.ResponsibilityOnInstance",
	"resilience.top_k_ms":                "resilience.TopKResponsibilityOnInstance",
	"resilience.enumerate_ms":            "resilience.EnumerateMinimumOnInstance",
	"store.snapshot_ms":                  "store.DiskStore.Snapshot",
}

// kindMetric maps each task kind to the suffix of its api.do_ms metric;
// Session calls are recorded under "api.Session.Do/<suffix>".
var kindMetric = map[api.Kind]string{
	api.KindSolve:              "solve",
	api.KindResponsibility:     "responsibility",
	api.KindTopKResponsibility: "top_k",
	api.KindEnumerate:          "enumerate",
	api.KindDecide:             "decide",
	api.KindVerifyContingency:  "verify",
	api.KindClassify:           "classify",
}

func doSpanName(t api.Task) string {
	if t.Kind == api.KindSolve && len(t.Weights) > 0 {
		return "api.Session.Do/solve_weighted"
	}
	return "api.Session.Do/" + kindMetric[t.Kind]
}

// layerOutput assembles a traced run's result from the spans plus the
// metrics measured directly (ratios, counts), logging the span summary.
func (tr *tracer) layerOutput(ops int, extra map[string]float64, checkErrs []error) *output {
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		unit := time.Millisecond
		if lm.unit == "us" {
			unit = time.Microsecond
		}
		v := extra[lm.name]
		if span, ok := spanMetrics[lm.name]; ok {
			v = tr.median(span, unit)
		}
		if suffix, ok := strings.CutPrefix(lm.name, "api.do_ms."); ok {
			v = tr.median("api.Session.Do/"+suffix, unit)
		}
		if lm.name == "api.alloc_kb_per_op" {
			v = meanOf(tr.allocKiB)
		}
		m[lm.name] = metric{v, lm.unit}
	}
	tr.summary(ops)
	return report(loopResult{attempted: ops}, checkErrs, m)
}

// repeatsWork names the layer calls left out of the share of Session time:
// a fresh engine's Solve and ApplyDelta repeat work that other spans of the
// same operation already time, and the request path classifies through
// the engine's cache rather than core.Classify.
var repeatsWork = map[string]bool{"engine.Engine.Solve": true, "witset.ApplyDelta": true, "core.Classify": true}

// summary prints, per span name, the call count and total time, and the
// share of Session.Do time that the separately timed layer calls of the
// same operations account for.
func (tr *tracer) summary(ops int) {
	total := map[string]time.Duration{}
	count := map[string]int{}
	var sessionTime, layerTime time.Duration
	for _, s := range tr.spans {
		if s.Op < 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		count[s.Name]++
		switch {
		case strings.HasPrefix(s.Name, "api."):
			sessionTime += d
		case s.Parent == 0 && !strings.HasPrefix(s.Name, "client.") && !repeatsWork[s.Name]:
			layerTime += d
		}
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: traced %d operations, %d spans\n", ops, len(tr.spans))
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench:   %-44s %8d calls %12.3f ms\n", n, count[n], float64(total[n])/1e6)
	}
	// The recorder's own cost, on a scratch tracer: what each span adds to
	// the operation it times.
	probe := newTracer()
	const n = 100000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin("probe"))
	}
	perSpan := time.Since(t0) / n
	fmt.Fprintf(os.Stderr, "perfbench: recording a span costs %v; %.1f spans per operation\n", perSpan, float64(len(tr.spans))/float64(ops))
	if sessionTime > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: top-level layer calls add up to %.1f%% of Session call time\n", 100*float64(layerTime)/float64(sessionTime))
	}
}

// inProcess is a server.Open instance behind a loopback httptest server,
// configured like the daemon's defaults.
type inProcess struct {
	srv *server.Server
	ts  *httptest.Server
	c   *client.Client
}

func openInProcess(cfg server.Config, conns int) (*inProcess, error) {
	cfg.Engine.Portfolio = true
	cfg.RequestTimeout = 30 * time.Second
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	return &inProcess{srv: srv, ts: ts, c: newClient(ts.URL, conns)}, nil
}

func (p *inProcess) close() {
	p.ts.Close()
	p.srv.Close()
}

// counters reads the engine counters the ratio metrics need from /metrics.
func (p *inProcess) counters() (map[string]float64, error) {
	ctx, cancel := waitCtx()
	defer cancel()
	raw, err := p.c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// cacheRatios turns /metrics deltas into the engine's ratio metrics.
func cacheRatios(before, after map[string]float64, into map[string]float64) {
	ratio := func(num, other string) float64 {
		h := after[num] - before[num]
		o := after[other] - before[other]
		if h+o == 0 {
			return 0
		}
		return h / (h + o)
	}
	into["engine.class_cache_hit_ratio"] = ratio("class_cache_hits", "class_cache_misses")
	into["engine.ir_cache_hit_ratio"] = ratio("ir_cache_hits", "ir_cache_misses")
	into["engine.comp_cache_hit_ratio"] = ratio("comp_cache_hits", "comp_cache_misses")
	if runs := after["solver_runs"] - before["solver_runs"]; runs > 0 {
		into["engine.solver_useful_ratio"] = (after["components_solved"] - before["components_solved"]) / runs
	}
}

// engineConfig is the engine configuration of a fresh Session or engine in
// the replay: the daemon's defaults (portfolio on, default workers) in the
// serving layer's shared-database mode.
func engineConfig() engine.Config {
	return engine.Config{Portfolio: true, NoClone: true}
}
