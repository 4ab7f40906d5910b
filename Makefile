GO ?= go

SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: build fmt-check vet vet-budget vet-fixtures test race race-short bench bench-smoke bench-incremental bench-scale bench-scale-smoke profile-scale heap-scale profile-flows bench-module-test examples-smoke check fuzz-smoke chaos-smoke

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

# Race detector over the quick suite: every package's tests in -short mode,
# the multi-lane stress replays of the differentiable and the exact timer
# (internal/core/stress_test.go) included (about 2 minutes on 2 CPUs).
race-short:
	$(GO) test -race -short ./...

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
# still exercised. The full pass runs once more on one lane, where it must
# report 0 allocs/op: its bed is warm, so an allocation is one the steady
# state makes (at two lanes the guided schedule can still grow a worker's
# scratch late). That run also reports the size of its bed, which must
# equal BENCH_incremental.json's design line, so a change to the bench
# design fails here until the record is re-measured. BENCH_backward.json
# and BENCH_incremental.json are then checked against the live benchmark
# names: renaming or dropping a sub-benchmark without refreshing the
# committed record fails loudly here instead of silently orphaning the
# recorded numbers.
bench-smoke:
	$(GO) test -bench . -benchtime=1x -run '^$$' ./... | tee /tmp/bench_smoke.txt
	$(GO) test -bench 'BenchmarkDiffTimerForwardBackward$$|BenchmarkDiffTimerIncremental' -benchtime=20x -run '^$$' .
	GOMAXPROCS=1 $(GO) test -bench 'BenchmarkDiffTimerForwardBackward$$' -benchtime=20x -benchmem -run '^$$' . | \
		tee /tmp/bench_smoke_allocs.txt
	@grep -Eq '^BenchmarkDiffTimerForwardBackward\s.*\s0 allocs/op' /tmp/bench_smoke_allocs.txt || \
		{ echo "bench-smoke: BenchmarkDiffTimerForwardBackward allocates in the steady state" >&2; exit 1; }
	@want=$$(grep -o '"design": "[^"]*"' BENCH_incremental.json | \
		grep -oE '[0-9]+ cells, [0-9]+ nets, [0-9]+ pins, [0-9]+ endpoints'); \
	got=$$(awk '/^BenchmarkDiffTimerForwardBackward[ \t]/ { for (i = 3; i < NF; i++) v[$$(i+1)] = $$i; \
		printf "%d cells, %d nets, %d pins, %d endpoints", v["cells"], v["nets"], v["pins"], v["endpoints"]; exit }' \
		/tmp/bench_smoke_allocs.txt); \
	if [ -z "$$want" ] || [ "$$want" != "$$got" ]; then \
		echo "bench-smoke: BENCH_incremental.json is stale: its design line has ($$want), the bed ($$got)" >&2; exit 1; \
	fi
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

# Scale smoke: run the harness end-to-end on the record's smallest point
# (proves gen → arena engine build → timing-driven stepping → RSS/JSON
# plumbing still compose) at the record's GOMAXPROCS, and compare the
# point's deterministic fields (cells, nets, pins and the arena carved,
# which grows with the lane count) with BENCH_scale.json exactly, so a
# change that moves them without re-measuring the record fails here. Then
# gate the recorded point names the same way bench-smoke gates
# BENCH_backward.json: every point name recorded in BENCH_scale.json must
# still be in the default sweep, so renaming or dropping a point without
# re-measuring fails loudly. The full sweep (bench-scale) is manual — its
# paper-scale anchors take minutes, not CI seconds.
bench-scale-smoke:
	GOMAXPROCS=$$(grep -o '"gomaxprocs": [0-9]*' BENCH_scale.json | grep -o '[0-9]*$$') \
		$(GO) run ./cmd/dtgp-bench -experiment scale -cells 50000 -iters 1 -q > /tmp/bench_scale_smoke.json
	@row() { sed -n '/"name": "cells-50000"/,/}/p' $$1 | grep -E '"(cells|nets|pins|arena_mb)":' | tr -d ' ,'; }; \
	want=$$(row BENCH_scale.json); got=$$(row /tmp/bench_scale_smoke.json); \
	if [ "$$(echo "$$want" | wc -l)" != 4 ] || [ "$$want" != "$$got" ]; then \
		echo "bench-scale-smoke: BENCH_scale.json is stale: its cells-50000 row differs from the code's" >&2; \
		echo "record: "$$want >&2; echo "code:   "$$got >&2; exit 1; \
	fi
	$(GO) run ./cmd/dtgp-bench -experiment scale -list > /tmp/bench_scale_points.txt
	@for name in $$(grep -o '"name": "[^"]*"' BENCH_scale.json | sed -e 's/"name": "//' -e 's/"$$//'); do \
		grep -qx "$$name" /tmp/bench_scale_points.txt || \
			{ echo "bench-scale-smoke: BENCH_scale.json is stale: recorded point $$name is not in the default sweep" >&2; exit 1; }; \
	done

# Full scaling sweep: regenerates the committed cells-vs-time trajectory
# (the default sweep: 50k, 200k and the 0.8M-cell paper-scale anchor at 10
# timing-driven iterations each). Budget about 2 minutes; run manually
# after touching the timer, net-state builders or the arena. The 1.9M-cell
# anchor is left out, as its peak takes most of an 8 GB machine; run it by
# name (README, "Scaling to paper size"). It builds the binary first
# because only go build stamps the git revision the record carries (go run
# does not); commit the code before measuring, or the revision reads
# "+modified".
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

# Live heap by owner at scale: at 204k and at 0.8M cells, build the
# engine, take three timing-driven iterations, run two GCs, print the live
# heap and write an inuse_space heap profile to HEAP_OUT-<point>.pprof,
# then print its top owners (DESIGN.md §13 cites them). Each point runs in
# a process of its own. Budget about a minute.
HEAP_OUT ?= /tmp/heap-scale
heap-scale:
	$(GO) build -o $(BENCH_BIN) ./cmd/dtgp-bench
	for p in 200000 superblue-0.8M; do \
		$(BENCH_BIN) -experiment heap -cells $$p -iters 3 -q -out $(HEAP_OUT)-$$p.pprof; \
		$(GO) tool pprof -sample_index=inuse_space -top -nodecount=20 $(BENCH_BIN) $(HEAP_OUT)-$$p.pprof; \
	done

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
	$(MAKE) race-short
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
