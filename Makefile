GO ?= go

SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: build fmt-check vet vet-budget vet-fixtures test race bench bench-smoke bench-incremental bench-scale bench-scale-smoke profile-scale profile-flows bench-module-test examples-smoke check fuzz-smoke chaos-smoke

build:
	$(GO) build ./...

# Formatting gate: every tracked Go file must be gofmt-clean. The analyzer
# fixtures under testdata/ are exempt: their .golden files record line
# numbers that reformatting would shift.
fmt-check:
	@unformatted=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then \
		echo "fmt-check: gofmt -l reports:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Static-analysis suite: dirtymark, errflow, floatdet, gradpair, hotalloc,
# indexspace, mapiter, minmax, parsafe, unreached, unturned (see
# internal/analysis and DESIGN.md §6, §10, §12, §20, §21, §22). Fails on any
# unsuppressed finding; stale //dtgp:allow annotations and hotalloc.allow
# entries are hard errors too.
vet: build
	$(GO) run ./cmd/dtgp-vet ./...

# vet-budget is the CI time gate: per-analyzer wall time must stay under 2x
# the committed baseline in internal/analysis/vet-budget.json, every
# baseline must name an analyzer or a driver phase, and every analyzer and
# phase must have a baseline. The baselines are generous — the gate is for
# complexity regressions, not machine noise.
vet-budget: build
	$(GO) run ./cmd/dtgp-vet -q -stats -strict-budget ./...

# vet-fixtures proves the suite still BITES: every seeded-mutant fixture
# under internal/analysis/testdata/ must keep producing its golden findings
# (runGoldenFixture fails on zero diagnostics, and the seeded-mutant tests
# assert each planted bug is individually reported). An analyzer refactor
# that silently stops reporting shows up here, not as a green vet.
vet-fixtures:
	$(GO) test ./internal/analysis/ -count=1 -run '(Golden|SeededMutants)$$'

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fuzz smoke: every parser fuzz target runs FUZZTIME of coverage-guided
# input generation (go's fuzzer allows one -fuzz target per invocation, so
# each gets its own run). Findings are minimised into testdata/fuzz/ by the
# toolchain; commit them as regression seeds.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/bookshelf/ -run '^FuzzParsePl$$' -fuzz '^FuzzParsePl$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bookshelf/ -run '^FuzzParseNodes$$' -fuzz '^FuzzParseNodes$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/liberty/ -run '^FuzzParseLiberty$$' -fuzz '^FuzzParseLiberty$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verilog/ -run '^FuzzParseVerilog$$' -fuzz '^FuzzParseVerilog$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sdc/ -run '^FuzzParseSdc$$' -fuzz '^FuzzParseSdc$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/guard/ -run '^FuzzDecodeCheckpoint$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime $(FUZZTIME)

# Chaos smoke: the seeded fault-injection matrix (kernel panics, NaN/Inf
# gradient poison, stalls, checkpoint I/O faults) plus the kill/resume
# bit-identity round-trip and the deadline/cancellation paths, all under the
# race detector. Every schedule is seed-deterministic, so a failure here
# reproduces exactly.
chaos-smoke:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestKillResume|TestDeadline|TestCancel|TestResume|TestCheckpointIOFaults' \
		./internal/place/
	$(GO) test -race -count=1 ./internal/chaos/
	$(GO) test -race -count=1 -run 'TestRing|TestCheckpoint|TestDecode|TestStore' ./internal/guard/

# Bench smoke: run every benchmark exactly once (no timing fidelity) so a
# benchmark that panics, allocates unboundedly, or bit-rots against an API
# change is caught pre-merge without paying for a real measurement sweep.
# The differentiable timer's full-pass and movement benchmarks then run at a
# real (small) iteration count so a regression that only shows up warm is
# still exercised, and BENCH_backward.json and BENCH_incremental.json are
# checked against the live benchmark names: renaming or dropping a
# sub-benchmark without refreshing the committed record fails loudly here
# instead of silently orphaning the recorded numbers.
bench-smoke:
	$(GO) test -bench . -benchtime=1x -run '^$$' ./... | tee /tmp/bench_smoke.txt
	$(GO) test -bench 'BenchmarkDiffTimerForwardBackward$$|BenchmarkDiffTimerIncremental' -benchtime=20x -run '^$$' .
	@for f in BENCH_backward.json BENCH_incremental.json; do \
		for name in $$(grep -o '"name": "Benchmark[^"]*"' $$f | sed -e 's/"name": "//' -e 's/"$$//'); do \
			grep -q "^$$name\b" /tmp/bench_smoke.txt /dev/null || \
				{ echo "bench-smoke: $$f is stale: recorded benchmark $$name no longer runs" >&2; exit 1; }; \
		done; \
	done

# The benchmarks BENCH_incremental.json records: the differentiable timer's
# full pass and its two movement workloads, and the net-weighting flow's
# exact STA from scratch and maintained (timing.Incremental.MoveCells), on
# superblue4 at 1/2048, ten runs each. Re-measure the record with it after
# touching either engine.
bench-incremental:
	$(GO) test -run '^$$' -bench 'BenchmarkDiffTimerForwardBackward$$|BenchmarkDiffTimerIncremental|BenchmarkExactSTAIncremental' -benchmem -count 10 .

# Scale smoke: run the harness end-to-end at a toy size (proves gen → arena
# engine build → timing-driven stepping → RSS/JSON plumbing still compose),
# then gate the committed scaling record the same way bench-smoke gates
# BENCH_backward.json: every point name recorded in BENCH_scale.json must
# still be in the default sweep, so renaming or dropping a point without
# re-measuring fails loudly. The full sweep (bench-scale) is manual — its
# paper-scale anchors take minutes, not CI seconds.
bench-scale-smoke:
	$(GO) run ./cmd/dtgp-bench -experiment scale -cells 2000 -iters 2 -q > /tmp/bench_scale_smoke.json
	@grep -q '"name": "cells-2000"' /tmp/bench_scale_smoke.json || \
		{ echo "bench-scale-smoke: harness produced no cells-2000 row" >&2; exit 1; }
	$(GO) run ./cmd/dtgp-bench -experiment scale -list > /tmp/bench_scale_points.txt
	@for name in $$(grep -o '"name": "[^"]*"' BENCH_scale.json | sed -e 's/"name": "//' -e 's/"$$//'); do \
		grep -qx "$$name" /tmp/bench_scale_points.txt || \
			{ echo "bench-scale-smoke: BENCH_scale.json is stale: recorded point $$name is not in the default sweep" >&2; exit 1; }; \
	done

# Full scaling sweep: regenerates the committed cells-vs-time trajectory
# (50k, 200k and the two paper-scale anchors at 10 timing-driven iterations
# each). Budget about 10 minutes; run manually after touching the timer,
# net-state builders or the arena. It builds the binary first because only
# go build stamps the git revision the record carries (go run does not);
# commit the code before measuring, or the revision reads "+modified".
BENCH_BIN ?= /tmp/dtgp-bench
bench-scale:
	$(GO) build -o $(BENCH_BIN) ./cmd/dtgp-bench
	$(BENCH_BIN) -experiment scale -iters 10 -out BENCH_scale.json

# Reproducible CPU profile of the scale workload: the 200k-cell point with
# 20 timing-driven iterations, on all CPUs, profiled from generation to the
# last iteration. Prints the flat top list; the profile stays in
# PROFILE_OUT for `go tool pprof` (DESIGN.md §19 cites its shares).
PROFILE_OUT ?= /tmp/profile-scale.pprof
profile-scale:
	$(GO) build -o $(BENCH_BIN) ./cmd/dtgp-bench
	$(BENCH_BIN) -experiment scale -cells 200000 -iters 20 -q -cpuprofile $(PROFILE_OUT) > /dev/null
	$(GO) tool pprof -top -nodecount=40 $(BENCH_BIN) $(PROFILE_OUT)

# Reproducible CPU profile of the three Table 3 flows (wirelength,
# net-weighting, differentiable timing) on the eight superblue presets at
# 1/1024, on one lane as the flow workloads run. Prints the flat top list;
# the profile stays in PROFILE_OUT (DESIGN.md §22 cites its shares).
profile-flows:
	$(GO) build -o $(BENCH_BIN) ./cmd/dtgp-bench
	GOMAXPROCS=1 $(BENCH_BIN) -experiment table3 -scale 1024 -q -cpuprofile $(PROFILE_OUT) > /dev/null
	$(GO) tool pprof -top -nodecount=40 $(BENCH_BIN) $(PROFILE_OUT)

# The benchmark harness under benchmark/ is a module of its own, so the root
# ./... never reaches its tests: a toy parent/child smoke run against
# BENCHMARK.json, correctness-gate corruption, fingerprint staleness and the
# --compare verdicts (about 10 s).
bench-module-test:
	$(GO) -C benchmark test ./...

# Examples smoke: run the examples that finish in seconds and write nothing
# into the working directory. gradcheck is the public API's gradient check
# (analytic vs finite differences) and exits 1 when it fails; stareport and
# quickstart drive the facade end to end. visualize writes SVG files and
# timingflow takes about 10 s, so they are left out.
examples-smoke:
	$(GO) run ./examples/gradcheck
	$(GO) run ./examples/stareport
	$(GO) run ./examples/quickstart

# check is the full pre-merge gate: compile, formatting, static analysis
# and its time budget, the whole test suite, the benchmark module's tests,
# the examples, the race detector over the quick (-short) suite, the
# chaos/resume robustness matrix, the benchmark smoke, and the parser+codec
# fuzz smoke.
check: build fmt-check vet
	$(MAKE) vet-budget
	$(MAKE) vet-fixtures
	$(GO) test ./...
	$(MAKE) bench-module-test
	$(MAKE) examples-smoke
	$(GO) test -race -short ./...
	$(MAKE) chaos-smoke
	$(MAKE) bench-smoke
	$(MAKE) bench-scale-smoke
	$(MAKE) fuzz-smoke

# Full benchmark sweep with allocation stats, repeated for stable medians.
# The JSON stream (one object per test2json event) lands in BENCH_pool.json
# for tooling; the human-readable log is printed as it runs. pipefail makes
# a benchmark failure fail the target instead of vanishing into the filter.
bench:
	$(GO) test -json -bench . -benchmem -run '^$$' -count 3 ./... | tee BENCH_pool.json | \
		grep -o '"Output":".*"' | sed -e 's/^"Output":"//' -e 's/"$$//' -e 's/\\t/\t/g' -e 's/\\n//g'
