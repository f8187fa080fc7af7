GO ?= go

.PHONY: all check build fmt test pgperf-test vet lint lint-list lint-sarif lint-summaries optcheck optcheck-build optcheck-diff race fuzz soak load study-smoke bench bench-json bench-json-smoke cover tables examples clean

all: check

# check is the default CI gate: tier-1 build+tests, the pgperf benchmark
# module's tests, gofmt cleanliness, vet, pglint, the compiler-diagnostics contract gate
# (pgoptcheck), the race detector over the short case set, a short-budget
# fuzz pass, and a short-horizon pgstudy run of both workload studies.
check: build fmt vet lint optcheck test pgperf-test race fuzz study-smoke

build:
	$(GO) build ./...

# fmt fails if gofmt would rewrite any Go file outside vendor/, listing
# the offenders; `gofmt -w <file>` fixes one.
GOFMT ?= gofmt
fmt:
	@out=$$($(GOFMT) -l $$(find . -name '*.go' -not -path './vendor/*')); \
	if [ -n "$$out" ]; then echo "gofmt needs to rewrite:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# pglint is the in-repo determinism/numerical-safety/concurrency analyzer
# suite (internal/lint, DESIGN.md §9): banned ambient randomness/time,
# map-order-dependent iteration, exact float comparison, sync.Pool leaks,
# severed error chains, context flow, hot-loop allocations, goroutine
# leaks, pooled-buffer escapes, mutex discipline, atomic/plain access
# mixes, determinism taint, and blocking goroutine sends — the last four
# exchanging cross-package function summaries as go vet analysis facts.
# The build is unconditional but cheap:
# Go's build cache makes an unchanged rebuild a near no-op, and pglint
# answers `go vet`'s -V=full probe with a hash of its own binary, so vet's
# result cache stays correct across rebuilds without Makefile-side
# dependency tracking.
PGLINT := bin/pglint

.PHONY: pglint-build
pglint-build:
	$(GO) build -o $(PGLINT) ./cmd/pglint

lint: pglint-build
	$(GO) vet -vettool=$(abspath $(PGLINT)) ./...

# lint-list prints every finding without failing the build: the triage
# view for judging a new analyzer or sweeping after a big refactor.
lint-list: pglint-build
	-$(GO) vet -vettool=$(abspath $(PGLINT)) ./...

# lint-sarif runs pglint in driver mode: SARIF 2.1.0 report for GitHub
# code scanning plus the checked-in baseline gate — findings already in
# .pglint-baseline.json are reported but do not fail the build; new ones
# do. Refresh the baseline (after triage, deliberately) with
# `bin/pglint -sarif -update-baseline`.
lint-sarif: pglint-build
	./$(PGLINT) -sarif -o pglint.sarif -baseline .pglint-baseline.json ./...

# lint-summaries warms go vet's per-package result cache — including the
# serialized pgfacts function summaries (.vetx files) the
# concurrency/determinism analyzers exchange — over the library packages.
# CI runs it as its own step before lint-sarif so the fact files are
# built once per run and show up as a distinct, cacheable timing; locally
# it is never needed (make lint does the same work and caches it).
lint-summaries: pglint-build
	$(GO) vet -vettool=$(abspath $(PGLINT)) ./internal/... ./cmd/...

# pgoptcheck is the compiler-diagnostics contract gate (internal/lint/
# optcheck, DESIGN.md §13): it compiles the hot kernel packages with
# -gcflags='-m=2 -d=ssa/check_bce/debug=1', parses the bounds-check,
# escape-analysis and inlining diagnostics, and fails on any finding not
# sanctioned (with its site count) by .pgopt-baseline.json. The go
# command replays the diagnostics from the build cache on unchanged
# rebuilds, so repeated runs cost a cache probe, not a recompile.
PGOPTCHECK := bin/pgoptcheck

optcheck-build:
	$(GO) build -o $(PGOPTCHECK) ./cmd/pgoptcheck

optcheck: optcheck-build
	./$(PGOPTCHECK) -o pgopt.sarif -baseline .pgopt-baseline.json

# optcheck-diff prints the full reconciliation against the baseline —
# new, grown, improved and fixed entries — the PR-review view. Tighten a
# shrunken baseline deliberately with `bin/pgoptcheck -update-baseline`.
optcheck-diff: optcheck-build
	./$(PGOPTCHECK) -diff -o '' -baseline .pgopt-baseline.json

test:
	$(GO) test ./...

# pgperf-test runs the benchmark's own tests (quick runs of every
# workload, names/units/bounds against BENCHMARK.json, the -compare
# verdicts). cmd/pgperf is a Go module of its own, so `go test ./...` at
# the root does not see it.
pgperf-test:
	cd cmd/pgperf && $(GO) test .

# Quick mode skips the multi-second suite-level claim checks.
test-short:
	$(GO) test -short ./...

# race runs the tier-1 tests under the race detector with the short case
# set. The concurrency suite (concurrency_test.go, determinism_test.go)
# exercises SolveBatch and concurrent preconditioner Apply across every
# method, so scratch-sharing bugs surface here.
race:
	$(GO) test -race -short ./...

# Short-budget native fuzzing of the input boundaries: Matrix Market
# and netlist parsing, SDDM construction, factor deserialization, the
# service's request decoders and the solver Options. Each target runs a
# few seconds — enough for regressions, not a soak; raise FUZZTIME for a
# longer hunt. TestFuzzTargetsInMakefile fails when a Fuzz function of
# the module is missing here.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzSolveOptions$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz='^FuzzReadMatrixMarket$$' -fuzztime=$(FUZZTIME) ./internal/sparse
	$(GO) test -run='^$$' -fuzz='^FuzzSplitCSC$$' -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzReadFactor$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzParseDirective$$' -fuzztime=$(FUZZTIME) ./internal/lint/directive
	$(GO) test -run='^$$' -fuzz='^FuzzParseOptDirective$$' -fuzztime=$(FUZZTIME) ./internal/lint/optcheck
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSolveRequest$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSystemRequest$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/powergrid
	$(GO) test -run='^$$' -fuzz='^FuzzReadSolution$$' -fuzztime=$(FUZZTIME) ./internal/powergrid

# soak runs the solve-service chaos suite under the race detector with a
# stretched duration: fault-injected factorizations and preconditioners,
# cancelled/slow/garbage clients, and overload, with every 200 response
# checked bitwise against a one-shot Solve referee and a goroutine-leak
# gate at shutdown. SOAKTIME is per scenario. The test-binary flag must
# come after the package path: go test stops its own flag parsing at the
# first flag it does not recognize, and everything after it — including
# the package path — becomes test-binary arguments for the *current
# directory's* package.
SOAKTIME ?= 10s
soak:
	$(GO) test -race -run='^TestSoak' -v ./internal/serve -soak=$(SOAKTIME)

# study-smoke runs both pgstudy workload studies at short horizons on a
# generated grid: a 30-step transient (asserting the factorize-once
# amortization path end to end) and a 16-sample Monte Carlo with
# open-circuit failures and load jitter (exercising fingerprint-grouped
# preparation reuse). Seconds of wall time; exits non-zero on any solve
# failure.
study-smoke:
	$(GO) run ./cmd/pgstudy transient -nx 24 -ny 24 -steps 30
	$(GO) run ./cmd/pgstudy mc -nx 24 -ny 24 -samples 16 -failcands 4 -failprob 0.25

# load is a quick in-process pgload run at 2x admission capacity: watch
# the shed rate engage while p99 stays bounded. At this load the
# degradation ladder peaks at High/Critical, where micro-batching is
# off (avg width ~1). Batching needs the wait queue under half full:
# with these settings (4 slots + 8 queue) that is -clients 8 or fewer,
# and at pgload's defaults (8 slots + 64 queue) -clients 8 averages a
# batch width of ~3; the report prints the peak pressure level reached.
load:
	$(GO) run ./cmd/pgload -clients 16 -duration 5s -nx 48 -ny 48 -max-inflight 4 -max-queue 8

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json records one machine-readable point of the performance
# trajectory: every registered method × case, with
# per-stage timings, allocation totals, peak heap and process RSS
# (cmd/pgbench). BENCH_POINT numbers the point (BENCH_<n>.json, one per
# growth step, committed); BENCH_SCALE trades fidelity for wall time —
# 0.35 runs the full grid in well under a minute on a laptop.
BENCH_POINT ?= 10
BENCH_SCALE ?= 0.35
bench-json:
	$(GO) run ./cmd/pgbench -point $(BENCH_POINT) -scale $(BENCH_SCALE) -o BENCH_$(BENCH_POINT).json

# bench-json-smoke is the CI gate: one case, two methods, validated by
# piping through the JSON decoder of the golden schema test
# (go test ./cmd/pgbench) beforehand.
bench-json-smoke:
	$(GO) run ./cmd/pgbench -point 0 -scale 0.1 -cases ibmpg3 -methods powerrchol,direct -o /tmp/pgbench-smoke.json
	$(GO) test ./cmd/pgbench

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Regenerate every table and figure of the paper at full scale.
tables:
	$(GO) run ./cmd/benchtab -scale 1.0 all ablations

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/irdrop
	$(GO) run ./examples/thermal3d
	$(GO) run ./examples/labelprop
	$(GO) run ./examples/transient
	$(GO) run ./examples/sddsolve

clean:
	rm -f cover.out test_output.txt bench_output.txt pglint.sarif pgopt.sarif
	rm -rf bin
