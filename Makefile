GO ?= go
STAMP := $(shell date -u +%Y%m%dT%H%M%SZ)

.PHONY: all build test race race-cpu perfbench-check bench bench-json bench-gate bench-baseline lint docs-check staticcheck test-differential fuzz-smoke api-check api-surface

# The perf gate's benchmark selection and the packages that define them:
# the exact-pipeline, portfolio, weighted min-cost, top-k ranking, and
# witness-IR build/join-plan benchmarks (root package) and the
# incremental-SAT binary-search pair (internal/cnfenc).
BENCH_GATE := ^Benchmark(ExactComponents|Portfolio|SATIncremental|GateCalibrate|WeightedComponents|TopKResponsibility|IRBuild|JoinPlan)
BENCH_GATE_PKGS := . ./internal/cnfenc/
# Allowed slowdown factor before the gate fails. cmd/benchgate's own default
# is 1.20 (the >20% contract for a quiet reference machine); shared CI
# runners add cache/GC co-tenant noise beyond what the calibration scale can
# cancel, so the default margin here is wider. Algorithmic regressions of
# the kind the gate exists to catch (e.g. losing incremental solving is a
# >2.5x slowdown on BenchmarkSATIncrementalAssume) still trip it. Tighten
# per-run with: make bench-gate BENCH_GATE_THRESHOLD=1.2
BENCH_GATE_THRESHOLD ?= 1.8

# The packages whose exported surface is pinned by API_SURFACE.txt: the
# public facade, the v1 task API, and the client SDK.
API_PACKAGES := repro repro/api repro/client

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The live-update path (database clones and index maintenance, delta IR
# migration with the carried component split, the watch surface) and the
# HTTP serving layer over it (admission, streaming, jobs, recovery) under
# the race detector at several GOMAXPROCS values: some of their races and
# orderings only show with more than one processor, others only with one.
race-cpu:
	$(GO) test -race -cpu=1,2,4 ./api/ ./internal/db/ ./internal/witset/ ./internal/engine/ ./internal/server/

# The service benchmark is a module of its own (perfbench/go.mod), so the
# root `go build ./...` and `go test ./...` skip it, yet its traced replay
# calls the database, witness-set and engine internals directly. This vets
# it and runs its tests against the current tree.
perfbench-check:
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test ./...

# The randomized differential suites that pin pipeline ≡ monolithic solver
# equivalence (solve, enumerate-minimum, responsibility; unit and weighted
# costs) plus the component-parallel portfolio agreement tests, the
# component cache across cost models, the bound hierarchy of the one
# branch-and-bound, and the incremental counter and the SAT-search racer
# against brute force and the exact solver, under the race detector.
# `make race` already includes them; this target names them so CI fails
# loudly if they are ever renamed away.
test-differential:
	$(GO) test -race -run 'TestDifferential|TestPortfolio|TestDecideAndVerifyViaIR|TestIncrementalSolver|TestSATFamilySearch|TestWeightedSAT|BoundHierarchy' \
		./internal/resilience/ ./internal/engine/ ./internal/cnfenc/

# Short fuzz bursts over the four fuzzed boundaries: the CQ parser, the
# PATCH wire decoder, the CDCL core, and the WAL frame/op decoder that
# crash recovery trusts. Each target's seed corpus already runs in
# `make test`; this explores beyond it briefly, so CI catches shallow
# crashers without fuzz-farm runtimes.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseCQ -fuzztime=$(FUZZTIME) ./internal/cq/
	$(GO) test -fuzz=FuzzMutateDecode -fuzztime=$(FUZZTIME) ./api/
	$(GO) test -fuzz=FuzzCDCL -fuzztime=$(FUZZTIME) ./internal/sat/
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME) ./internal/store/

# Benchmark smoke run: one iteration of every benchmark, enough to catch
# bit-rot in the harness without CI-length timings.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Machine-readable benchmark results for the perf trajectory: the same
# smoke run, converted to BENCH_<stamp>.json (uploaded as a CI artifact).
bench-json:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./... | $(GO) run ./cmd/benchjson > BENCH_$(STAMP).json
	@echo "wrote BENCH_$(STAMP).json"

# CI perf gate: re-time the solver-critical benchmarks (0.5s × 5 runs, so
# sub-millisecond benchmarks get thousands of iterations; cmd/benchgate
# collapses the runs to the per-benchmark median and scales by the
# machine-speed calibration) and fail past BENCH_GATE_THRESHOLD against the
# committed bench_baseline.json. The fresh document keeps the ignored
# BENCH_ prefix so gate runs never dirty the tree.
bench-gate:
	$(GO) test -run='^$$' -bench='$(BENCH_GATE)' -benchtime=0.5s -count=5 $(BENCH_GATE_PKGS) \
		| $(GO) run ./cmd/benchjson > BENCH_gate_fresh.json
	$(GO) run ./cmd/benchgate -baseline bench_baseline.json -fresh BENCH_gate_fresh.json \
		-bench '$(BENCH_GATE)' -threshold $(BENCH_GATE_THRESHOLD)

# Refresh the committed perf-gate baseline. Run on the reference machine
# after an intentional perf change (or to start gating a new benchmark) and
# commit the result; bench-gate compares every future run against it.
bench-baseline:
	$(GO) test -run='^$$' -bench='$(BENCH_GATE)' -benchtime=0.5s -count=5 $(BENCH_GATE_PKGS) \
		| $(GO) run ./cmd/benchjson > bench_baseline.json
	@echo "wrote bench_baseline.json"

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis beyond go vet. Skips with a notice when the staticcheck
# binary is absent so local runs stay dependency-free; the CI docs job
# installs it and gets the full check.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Regenerate the exported-API snapshot. Run after an intentional surface
# change and commit the result; api-check fails on any undocumented drift.
api-surface:
	@{ for p in $(API_PACKAGES); do \
		echo "== $$p"; $(GO) doc -short $$p; echo; \
	done; } > API_SURFACE.txt
	@echo "wrote API_SURFACE.txt"

# Fail when the exported surface of the public packages drifts from the
# checked-in API_SURFACE.txt golden: every breaking (or additive) change
# to repro, repro/api or repro/client must be reviewed and re-snapshotted
# with `make api-surface`.
api-check:
	@tmp=$$(mktemp); { for p in $(API_PACKAGES); do \
		echo "== $$p"; $(GO) doc -short $$p; echo; \
	done; } > $$tmp; \
	if ! diff -u API_SURFACE.txt $$tmp; then \
		rm -f $$tmp; \
		echo "exported API surface changed; review the diff and run 'make api-surface' to accept"; \
		exit 1; \
	fi; rm -f $$tmp
	@echo "api-check: exported surface matches API_SURFACE.txt"

# Docs-and-hygiene gate: vet, staticcheck (when installed), gofmt over the
# runnable examples, the compiled Example functions that keep the README
# snippets honest, and the exported-API snapshot check.
docs-check: staticcheck api-check
	$(GO) vet ./...
	@out="$$(gofmt -l examples/)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	$(GO) test -run '^Example' ./...
