# EventSpace development entry points. Everything is standard-library
# Go; the only external tools are the optional CI linters installed on
# demand (staticcheck, govulncheck).

GO ?= go

.PHONY: build test test-short bench microbench bench-staleness read-gates checkpoint-gates append-gates engine-gates gather-gates collect-gates leaf-packages one-clock-switch recovery-e2e monitor-e2e fault-e2e lint vet eslint ci

# zero-allocs passes a -benchmem listing through and fails unless at
# least $(1) benchmarks ran and every one of them reports 0 allocs/op.
zero-allocs = awk '{ print } /allocs\/op/ { n++ } /allocs\/op/ && !/ 0 allocs\/op/ { bad = 1 } END { exit bad || n < $(1) }'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short -race ./...

# bench runs the repo benchmark (contract in BENCHMARK.json, harness
# and metric definitions in benchmark/README.md).
bench:
	bash benchmark/run.sh

# microbench runs the root package's go-test micro-benchmarks.
microbench:
	$(GO) test -bench=. -benchmem

# bench-staleness runs the straggler-storm chaos suite under the race
# detector and records the degradation ladder's accuracy-versus-overhead
# table (3 modes x 3 seeds) in BENCH_staleness.json.
bench-staleness:
	$(GO) test -race -run TestStragglerStormBoundedStaleness ./internal/escope/
	STALENESS_BENCH_OUT=$(CURDIR)/BENCH_staleness.json \
		$(GO) test -race -run TestRecordStalenessBench ./internal/bench/

# read-gates are the read side's allocation gates, run without the race
# detector (which allocates on its own): a warm scan — full or selective
# — allocates a constant, an aggregate allocates per cell and not per
# tuple, and the selective-scan and aggregate benchmarks still run (one
# iteration each, as a smoke test).
read-gates:
	$(GO) test -count=1 -run 'TestScanSteadyStateAllocs' -bench 'BenchmarkScanSelective' -benchtime 1x ./internal/archive/
	$(GO) test -count=1 -run 'TestRunAllocsScaleWithCells' -bench 'BenchmarkAggregateRun' -benchtime 1x ./internal/query/

# checkpoint-gates are the checkpointer's zero-alloc gates, as the CI
# job states them: the tuple-block encode, the warm frame encode through
# a kept codec, the job's fold, and the gather thread's share of
# AppendRaw over benchmark-shaped replies (which also prints ns/tuple)
# must each report 0 allocs/op (and all four must have run).
checkpoint-gates:
	$(GO) test -run '^$$' -bench 'BenchmarkCheckpoint(EncodeTuples|EncodeFrame|Fold|AppendRaw)' -benchmem ./internal/checkpoint/ | $(call zero-allocs,4)

# append-gates are the archive writer's zero-alloc gates: a warm writer
# appending whole blocks (the test, which must have run and passed) and
# benchmark-shaped 3 904-tuple replies through AppendRaw (the benchmark,
# which also prints ns/tuple) allocates nothing. A fixed iteration count
# keeps the benchmark's segment file to some 25 MB.
append-gates:
	$(GO) test -count=1 -v -run '^TestColumnarAppendSteadyStateZeroAlloc$$' ./internal/archive/ | grep -- '--- PASS: TestColumnarAppendSteadyStateZeroAlloc'
	$(GO) test -run '^$$' -bench 'BenchmarkWriterAppendRaw' -benchtime 500x -benchmem ./internal/archive/ | $(call zero-allocs,1)

# engine-gates are the continuous-query engine's zero-alloc gates: a
# warm engine takes benchmark-shaped replies — ticks, window scans,
# grouping, compactions — without allocating (the test, which must have
# run and passed), and the same replies through AppendRaw with the
# benchmark's three standing alerts report 0 allocs/op (the benchmark,
# which also prints ns/tuple).
engine-gates:
	$(GO) test -count=1 -v -run '^TestEngineWarmTickZeroAlloc$$' ./internal/query/ | grep -- '--- PASS: TestEngineWarmTickZeroAlloc'
	$(GO) test -run '^$$' -bench 'BenchmarkEngineAppendRaw' -benchtime 2000x -benchmem ./internal/query/ | $(call zero-allocs,1)

# gather-gates are the gather path's allocation gates, run without the
# race detector: a warm benchmark-shaped pull allocates at most three
# tuple sizes per tuple and a number of objects that does not depend on
# how much was written (the test; the benchmark prints ns/tuple, B/tuple
# and allocs/pull beside it), and an element write, a warm batch drain
# into a sized buffer and the allreduce result store's write each report
# 0 allocs/op.
gather-gates:
	$(GO) test -count=1 -run 'TestScopePullAllocGates' -bench 'BenchmarkScopePull' -benchtime 20x ./internal/escope/
	$(GO) test -run '^$$' -bench 'Benchmark(DrainBytesInto|ElementWrite)' -benchmem ./internal/pastset/ | $(call zero-allocs,2)
	$(GO) test -run '^$$' -bench 'BenchmarkValueStoreWrite' -benchmem ./internal/paths/ | $(call zero-allocs,1)

# collect-gates are the collection path's zero-alloc gates: the event
# collector's write (with and without self-metrics), the ingest queue's
# shed and the breaker's decision each report 0 allocs/op. The collector's
# self-metrics contract (exact counts from its sequence counter under
# concurrent writers, at the 32-bit boundary and across registry swaps)
# runs under -race.
collect-gates:
	$(GO) test -run '^$$' -bench 'Benchmark(EventCollectorWrite|IngestShed)' -benchmem ./internal/collect/ | $(call zero-allocs,3)
	$(GO) test -run '^$$' -bench 'BenchmarkBreakerDecision' -benchmem ./internal/escope/ | $(call zero-allocs,1)
	$(GO) test -race -count=20 -run 'TestCollectorSelfMetrics' ./internal/collect/

# leaf-packages holds internal/pastset and internal/wire to importing
# nothing else of this module. pastset carries no clock, so whatever
# threads a clock through the packages that park on it (ROADMAP item 1)
# has this one fewer to visit; wire is the codec every binary format is
# declared with, which paths and analysis can use only while it sits
# below them.
leaf-packages:
	@for p in pastset wire; do \
		deps=$$($(GO) list -deps ./internal/$$p | grep '^eventspace/' | grep -vx "eventspace/internal/$$p"); \
		if [ -n "$$deps" ]; then echo "internal/$$p is not a leaf, it imports:" $$deps; exit 1; fi; \
	done

# one-clock-switch holds core.RunVirtual to being the only non-test code
# that enables, quiesces or disables the process-global virtual clock:
# the instance clock (ROADMAP item 1) then has one function to change.
one-clock-switch:
	@sites=$$(grep -rnE 'vclock\.(Enable|Disable|Quiesce)\(' --include=*.go . | grep -v _test.go | grep -v '^./internal/vclock/' | cut -d: -f1 | sort -u); \
		if [ "$$sites" != "./internal/core/core.go" ]; then echo "the virtual clock is switched outside internal/core/core.go:" $$sites; exit 1; fi

# recovery-e2e runs the front-end recovery end-to-end tests under the
# race detector: the crash matrix (it skips under -short, so test-short
# never reaches it) and the clean-seal failover at the root, the
# checkpoint ladder in internal/reconfig, System.Recover's undo of a
# partial start in internal/core, and the load-balance monitor's
# floors-only deduplication and refused-build release in
# internal/monitor.
recovery-e2e:
	$(GO) test -race -count=1 -run 'TestCrashMatrix|TestFrontEndFailover' .
	$(GO) test -race -count=1 -run 'TestRecoverFrontEnd|TestFailover' ./internal/reconfig/
	$(GO) test -race -count=1 -run 'TestRecover' ./internal/core/
	$(GO) test -race -count=1 -run 'TestLoadBalanceResume|TestLoadBalanceRefused' ./internal/monitor/

# monitor-e2e runs the monitors under the race detector, three times
# over, so a concurrent Stop races the analysis threads' waiter-close
# teardown: the monitor package, the figure 3 and 4 monitors and the
# live-versus-replay load balance (both modes) at the root, and the
# System-level checks in internal/core that stopping one monitor leaves
# the others' analysis threads running.
monitor-e2e:
	$(GO) test -race -count=3 ./internal/monitor/
	$(GO) test -race -count=3 -run 'TestArchiveReplayMatchesLiveLoadBalance|TestFigure3Monitors|TestFigure4Statsm' .
	$(GO) test -race -count=3 -run 'TestStoppingOneMonitorLeavesOthersRunning|TestRecoverStatsmKeepsAnalysing' ./internal/core/

# fault-e2e repeats the host-crash transition test under the race
# detector and a shuffled order, 200 times: once HostDown reports a
# crashed host, a call on a connection dialled before the crash fails
# with ErrConnClosed, never ErrHostDown (a fault event applies in one
# critical section).
fault-e2e:
	$(GO) test -race -shuffle=on -count=200 -run '^TestCrashFailsCallsAndRestartRecovers$$' ./internal/vnet/

vet:
	$(GO) vet ./...

# eslint is the project-specific invariant suite (DESIGN.md §8). The
# same run reports every //lint:allow that lacks a reason, names an
# unknown analyzer, or suppresses no finding.
eslint:
	$(GO) run ./cmd/eslint ./...

lint: vet eslint

# ci mirrors the GitHub Actions job, minus the tool installs. The
# benchmark harness is a module of its own, so the root ./... patterns
# never reach it; the last step is what notices an API change that
# breaks benchmark/sut.go.
ci: build lint leaf-packages one-clock-switch test-short read-gates checkpoint-gates append-gates engine-gates gather-gates collect-gates recovery-e2e monitor-e2e fault-e2e
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
