# Developer entry points. Everything here is plain Go tooling — no extra
# dependencies.

GO ?= go
BENCH_FILE := BENCH_$(shell date +%F).json
# The committed benchmark baseline the regression gate diffs against.
BASELINE ?= BENCH_2026-08-08.json

.PHONY: all build test race vet bench benchdiff chaos

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The -race smoke list; the CI race job runs this target. The internal/sim
# entries cover coroutine reuse and teardown, which is goroutine-lifecycle
# code, the kernel-served resource grants (the Use-versus-Acquire+Hold+Release
# differential and shutdown with a grant pending), visit chains (the
# Visits-versus-Use differential, and an interrupt, a shutdown and a panic
# in Next mid-chain), seize visits (the seize-chain-versus-Acquire+Use+
# Release differential and an interrupt while queued to seize), and the
# seed corpora of FuzzKernelInterleave and FuzzKernelInterleaveUse.
# TestKernelEquivalencePins covers the request chain's in-chain accesses,
# TM steps and hops: the cc engines, lock-grant tracing and message
# accounting run on the kernel's stack as well as the process's.
race:
	$(GO) test -race \
		-run 'TestParallelSweepSmoke|TestSweepsDeterministicAcrossWorkerCounts|TestRunGrid|TestFaultRunDeterministic|TestPrepareWindowCrashResolvesInDoubt|TestReplicatedRunDeterministic|TestCapacitySweepDeterministicAcrossWorkerCounts|TestOpenRunDeterministic|TestPartitionRunDeterministic|TestSharedFaultPlanNotMutated|TestCCSweepDeterministicAcrossWorkerCounts|TestScaleSweepDeterministicAcrossWorkerCounts|TestQueCCNoDeadlocksNoProbeTraffic|TestNoProbeStateOutsideDetection|TestCoroutineReuseSequential|TestDrainedRunLeavesNoGoroutines|TestShutdownRunsDefersOnReusedCoroutine|TestPanicCoroutineNotPooled|FuzzKernelInterleave|TestUseMatchesAcquireHoldRelease|TestShutdownUnwindsServedUse|TestInterruptBetweenGrantAndServe|FuzzKernelInterleaveUse|TestVisitsMatchUses|TestInterruptMidChain|TestShutdownMidChain|TestPanicInNext|TestSeizeChainMatchesAcquireUseRelease|TestInterruptWhileSeizing|TestKernelEquivalencePins' \
		./internal/experiment/ ./internal/testbed/ ./internal/sim/

# perfbench/ is its own module, so ./... skips it; vetting it compiles the
# benchmark against the current facade.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet .

# Record a benchmark baseline for perf PRs to diff against: the whole -bench
# suite with allocation stats as a JSON event stream in BENCH_<date>.json.
# Three iterations per benchmark: single-shot numbers swing ±10% run to run,
# which is useless against a 20% regression gate; 3x keeps the suite under a
# few minutes while averaging most of that noise away.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 3x -json ./... | tee $(BENCH_FILE)

# Benchmark-regression gate: re-run the two kernel-gated benchmarks at HEAD
# and fail if either is >20% slower than the committed $(BASELINE). CI runs
# this on every push; run it locally before perf-sensitive PRs.
benchdiff:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulateMB8$$|BenchmarkCapacitySweep$$' -benchmem -benchtime 3x -json . > bench_head.json
	$(GO) run ./cmd/benchdiff -old $(BASELINE) -new bench_head.json

# The chaos audits, run by the CI chaos job: randomized fault plans —
# unreplicated, R=2, R=2 with scheduled network partitions (the split-brain
# audit), one audit per alternative concurrency-control paradigm (QueCC,
# OCC), a 16-site scale fleet, and the replica catch-up double-drain
# regression run.
chaos:
	$(GO) test -run 'TestChaosAuditClean|TestAuditorCleanOnFaultyRun|TestReplicatedChaosAuditClean|TestReplicatedFaultsAuditClean|TestOpenChaosAuditClean|TestPartitionChaosAuditClean|TestPartitionReplicatedAuditClean|TestQueCCChaosAuditClean|TestOCCChaosAuditClean|TestScaleChaosAuditClean|TestReplicaCatchUpDrainedOnce' -v \
		./internal/experiment/ ./internal/testbed/
