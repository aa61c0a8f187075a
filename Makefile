# Verification tiers. `make check` is the full recipe CI should run.
#
#   build       - compile everything
#   test        - tier 1: the plain test suite
#   race        - tier 2: vet of both modules (the root and bench/) + the
#                 suite (incl. the differential harness in
#                 internal/integration) under the race detector
#   bench       - compile-and-smoke every benchmark (one iteration each)
#   bench-smoke - quick perf tier: the simulator and analysis benchmarks
#                 (a few real iterations, -benchmem) + vet of
#                 internal/sim, so a regression in the pooled sim hot
#                 path or the trie analysis fast path is caught without
#                 running the full bench suite
#   bench-json  - run the headline benchmarks and refresh BENCH_sim.json
#                 and BENCH_analysis.json (see tools/bench_json.sh and
#                 tools/bench_analysis_json.sh; numbers are machine-
#                 relative, regenerate before/after on the same box)
#   verify-obs  - observability tier: vet + race tests of the
#                 instrumentation packages (metrics, trace, telemetry,
#                 par, sim, exp), the steady-state alloc regression
#                 test, and tools/check_obs_overhead.sh's <2% disabled-
#                 tracing throughput guard against BENCH_sim.json
#   verify-latency - latency metric suite tier: the 200-workload
#                 analysis-vs-simulation differential harness and the
#                 observer property harness under -race, the trie
#                 fast-path unit differentials, the latency observer
#                 tests, the latency sweep and its simulation loop
#                 (internal/exp), and the chains fuzz seed corpus
#   verify-sim-cycle - steady-state jump-ahead and engine-core tier: the
#                 cycle-detection and batch unit tests, the latency
#                 observer tests and the test-only age observer they
#                 cross-check against, plus the public-API jump on/off
#                 determinism test under -race, every TestJumpAhead*
#                 differential in internal/integration (the 200-workload
#                 jump-vs-full harness under four warm-up regimes), the
#                 end-to-end latency bounds against the latency observer
#                 (TestE2EBoundsContainSimulation), the release calendar's
#                 and dispatch set's differential against the reference
#                 engine (TestPooledEngineCalendarMatchesReference: offsets
#                 over several periods, equal offsets within a period
#                 class, sporadic tasks inside periodic classes, > 64
#                 ECUs, offsets passed per run through sim.Run and
#                 sim.Batch), then 20 s of FuzzEngineMatchesReference (the
#                 pooled engine against the reference engine on fuzzed
#                 graph size, ECU count, those shapes, LET, buffered
#                 edges, zero BCET and exec model)
#   verify-explain - decision-telemetry tier: vet + race tests of the
#                 explain recorder/witness, the metrics registry export
#                 that the record, the derived telemetry gauges and the
#                 manifest all read, the shared CLI -explain lifecycle,
#                 the bench gate tool, race tests of internal/exp's
#                 simulation loops (whose runs write the exp.sim.jump.*
#                 counters the record's jump_runs reads), disparity-sim's
#                 jump tally (its -explain jump_runs == its counter
#                 delta), and the pinned WATERS -explain golden
#   verify-scale - fleet-scale tier: vet + race tests of the bitset,
#                 chains, and fleet generator packages, the >64-task
#                 differential harness (100 fleet-tier workloads fast
#                 path == reference, a corpus with > 64 shared tasks
#                 per graph on multi-word masks, exact shared-task
#                 masks on the 1000+-task default fleet, the subtree
#                 descent == reference field by field on the default
#                 fleet with most pairs skipped wholesale, plus the
#                 subtree-aggregate property test — every TestScale* in
#                 internal/integration rides the -run pattern), the
#                 descent == reference bound and argmax rank at forced
#                 block caps, serial and parallel, under -race
#                 (core.TestDescentMatchesReference, with a pinned
#                 graph a Theorem-1-only S-diff prune gets wrong), the
#                 S-diff prune's closed-form bounds (core.TestSDiffPrune*:
#                 evaluated value ≤ pair U ≤ row bound ≤ block bound on
#                 every pair, the mask split sums == the decomposition's,
#                 and U against the recursion it replaces)
#                 and the ℬ split identity they rest on
#                 (backward.TestTrieBoundsSplitAtTask), the tied ranks
#                 the descent keeps for the greedy == Disparity's pairs
#                 at the bound, serial and parallel
#                 (core.TestDescentTiesMatchDisparity), every greedy round
#                 replayed with a full descent: a buffer moves no pair
#                 whose chains both start elsewhere, and every round the
#                 greedy decides from those ties would have lost
#                 (core.TestGreedyRoundsAreLocal), OptimizeTask's pruned
#                 worst pair == Disparity's
#                 (core.TestOptimizeTaskMatchesDisparityArgMax), the public
#                 GenerateFleet tests, the pinned fleet generator
#                 golden, ten -race runs of internal/par (the
#                 atomic-counter dispatcher the parallel descent runs
#                 its blocks on) and the greedy optimizer against its
#                 oracle under -race (TestDifferentialGreedyVsOracle,
#                 whose rounds stop their descent at the incumbent
#                 bound), and the WCRT analysis against its per-task
#                 oracle under -race (every TestAnalyzeMatchesOracle*:
#                 WCRTs, verdicts and fixed-point iteration counts
#                 equal on the WATERS and default fleet corpora, ECUs
#                 with 20+ distinct periods or one period per task,
#                 overload, the 2^20-period busy-period guard, the
#                 maxIterations cap and sums that leave int64)
#   verify-model - graph loader tier: vet + race tests of internal/model
#                 and internal/timeu (the schema decoder == the reference
#                 encoding/json decoder on 300 random graphs and on fleet
#                 graphs of the benchmark's sizes, the R1–R3 rejection
#                 table, error offsets within the input, the document-size
#                 limit, the adjacency property test, the packed edge and
#                 priority keys against their range checks and the
#                 comparator, the checked time parser), then 30 s of
#                 FuzzReadJSON (the loader against the reference decoder,
#                 seeded for every fast path of the scan) and 15 s of
#                 FuzzParse (the time parser against math/big, its trim
#                 against strings.TrimSpace)
#   verify-bench - the repository benchmark's own module (bench/, which
#                 the root ./... does not reach): a smoke run of every
#                 workload through the public facade, BENCHMARK.json
#                 validation, and the pinned seed-1 result digests
#   bench-gate  - regenerate both bench JSONs into .bench/ and diff
#                 them against the checked-in baselines with
#                 tools/bench_compare (BENCH_GATE_FLAGS=-report-only
#                 for advisory mode); fails on ratio/alloc regression
#   check       - build + test + race + bench
#
# tools/escape_check.sh (not wired into check; advisory) prints sim hot-path
# values that escape to the heap per `go build -gcflags=-m`.

GO ?= go

.PHONY: build test race bench bench-smoke bench-json verify-obs verify-latency verify-sim-cycle verify-explain verify-scale verify-model verify-bench bench-gate check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) vet ./...
	$(GO) -C bench vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

bench-smoke:
	$(GO) vet ./internal/sim/...
	$(GO) test -run='^$$' -bench='BenchmarkSimThroughput|BenchmarkPooledEngine|BenchmarkReferenceEngine|BenchmarkPairBounds|BenchmarkSimJumpAhead|BenchmarkBatchSweep' -benchtime=3x -benchmem ./...

bench-json:
	sh tools/bench_json.sh
	sh tools/bench_analysis_json.sh

verify-obs:
	$(GO) vet ./...
	$(GO) test -race ./internal/metrics/... ./internal/trace/... ./internal/telemetry/... ./internal/par/... ./internal/sim/...
	$(GO) test -race -run 'TestSweepObservability|TestUntracedSweepIdentical' ./internal/exp/...
	$(GO) test -run 'TestSteadyStateAllocsPerJob' ./internal/sim/...
	sh tools/check_obs_overhead.sh

verify-sim-cycle:
	$(GO) vet ./internal/sim/...
	$(GO) test -race -run 'TestJumpAhead|TestBatch' ./internal/sim/...
	$(GO) test -race -run 'TestLatencyObserver|TestAgeObserver' ./internal/sim/...
	$(GO) test -race -run 'TestSimulateJumpAheadDeterministic' .
	$(GO) test -run 'TestJumpAhead' ./internal/integration/...
	$(GO) test -run 'TestE2EBoundsContainSimulation' ./internal/integration/...
	$(GO) test -run 'TestPooledEngineCalendarMatchesReference' ./internal/integration/...
	$(GO) test -run '^$$' -fuzz '^FuzzEngineMatchesReference$$' -fuzztime 20s ./internal/integration/

verify-explain:
	$(GO) vet ./internal/explain/... ./tools/bench_compare/...
	$(GO) test -race ./internal/explain/... ./internal/metrics/... ./internal/telemetry/... ./internal/cli/... ./tools/bench_compare/...
	$(GO) test -race -run 'TestSimulat' ./internal/exp/...
	$(GO) test -race -run 'TestRunSimJumpTally' ./cmd/disparity-sim/...
	$(GO) test -run 'TestGoldenExplainWaters' ./cmd/disparity-analyze/...
	$(GO) test -run 'TestReportExplainSection' ./internal/report/...

verify-scale:
	$(GO) vet ./internal/bitset/... ./internal/chains/... ./internal/randgraph/... ./internal/waters/...
	$(GO) test -race ./internal/bitset/... ./internal/chains/... ./internal/randgraph/... ./internal/waters/...
	$(GO) test -race -run 'TestScale' ./internal/integration/...
	$(GO) test -race -run 'TestDescentMatchesReference|TestSDiffPrune|TestDescentTiesMatchDisparity|TestGreedyRoundsAreLocal|TestOptimizeTaskMatchesDisparityArgMax' ./internal/core/...
	$(GO) test -race -run 'TestTrieBoundsSplitAtTask' ./internal/backward/...
	$(GO) test -run 'TestGenerateFleet' .
	$(GO) test -run 'TestGoldenGenTopologies/fleet' ./cmd/disparity-gen/...
	$(GO) test -race -count=10 ./internal/par/...
	$(GO) test -race -run 'TestDifferentialGreedyVsOracle' ./internal/integration/...
	$(GO) test -race -run 'TestAnalyzeMatchesOracle' ./internal/sched/...

verify-model:
	$(GO) vet ./internal/model/... ./internal/timeu/...
	$(GO) test -race ./internal/model/... ./internal/timeu/...
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 30s ./internal/model/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s ./internal/timeu/

verify-bench:
	cd bench && $(GO) test .

bench-gate:
	mkdir -p .bench
	BENCH_OUT_DIR=.bench sh tools/bench_json.sh
	BENCH_OUT_DIR=.bench sh tools/bench_analysis_json.sh
	$(GO) run ./tools/bench_compare $(BENCH_GATE_FLAGS) BENCH_sim.json .bench/BENCH_sim.json BENCH_analysis.json .bench/BENCH_analysis.json

verify-latency:
	$(GO) test -race -run 'TestLatency' ./internal/integration/...
	$(GO) test -run 'TestChainLatency' ./internal/backward/...
	$(GO) test -run 'TestLatency' ./internal/core/... ./internal/sim/...
	$(GO) test -run 'TestLatencySweep|TestSimulateLatencies' ./internal/exp/...
	$(GO) test -run 'FuzzIndexMatchesEnumerate' ./internal/chains/...

check: build test race bench
