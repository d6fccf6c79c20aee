# EventSpace development entry points. Everything is standard-library
# Go; the only external tools are the optional CI linters installed on
# demand (staticcheck, govulncheck).

GO ?= go

.PHONY: build test test-short examples bench bench-record bench-check microbench bench-staleness flake-census read-gates checkpoint-gates append-gates engine-gates gather-gates collect-gates leaf-packages one-clock-switch clock-determinism model-clock-race archive-race chaos-e2e checkpoint-reference recovery-e2e monitor-e2e fault-e2e fuzz benchmark-harness lint vet eslint fmt-check ci

# zero-allocs passes a -benchmem listing through and fails unless at
# least $(1) benchmarks ran and every one of them reports 0 allocs/op.
zero-allocs = awk '{ print } /allocs\/op/ { n++ } /allocs\/op/ && !/ 0 allocs\/op/ { bad = 1 } END { exit bad || n < $(1) }'

# build also cross-compiles for darwin/arm64, so the clock's fallback
# (hrtime without the cycle counter) always compiles.
build:
	$(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short -race ./...

# examples runs the package Examples five times. go test -count repeats
# tests but runs each Example once, so the loop does the repeating: an
# Output line that rests on a virtual-clock tie fails here rather than
# at random in a plain go test.
examples:
	for i in 1 2 3 4 5; do $(GO) test -count=1 -run '^Example' . || exit 1; done

# bench runs the repo benchmark (contract in BENCHMARK.json, harness
# and metric definitions in benchmark/README.md).
bench:
	bash benchmark/run.sh

# The benchmark trajectory: BENCH_trajectory.jsonl holds one benchmark
# record a line, wrapped as
#   {"commit":C,"pr":N,"runs":R,"kind":K,"record":{...}}
# with the record last. R is how many runs the record summarises: 1 for
# a run's own record, more for a median back-filled from CHANGES.md. K
# says where it came from: bench-record (below), anchor (a ROADMAP
# anchor's run), pair-median (a PR's parent or change median), and
# pair-parent / pair-change (one side of a PR's alternating pairs, run
# from frozen copies of the parent and of the change). C is the commit
# the records ran at; C+change is C with the uncommitted change of a PR
# on top (bench-record run before the commit), C+frozen a frozen copy
# of such a change. Only bench-record entries are bench-check's
# baseline.
TRAJECTORY := BENCH_trajectory.jsonl
trajectory-record = sed -n 's/^{"commit":"[^"]*","pr":[0-9]*,"runs":[0-9]*,"kind":"[^"]*","record":\(.*\)}$$/\1/p'

# bench-record runs the benchmark five times on a fresh seed (SEED=
# overrides it) and appends each run's record, wrapped with the commit
# (C, or C+change when the tree holds uncommitted changes) and
# PR=<number>, to the trajectory. It only reads benchmark/'s output.
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<number> [SEED=<seed>]"; exit 2; }
	@seed=$${SEED:-$$(date +%s)}; commit=$$(git describe --always --dirty=+change); out=$$(mktemp); \
		bash benchmark/run.sh -runs 5 -seed $$seed -out $$out || { rm -f $$out; exit 1; }; \
		while IFS= read -r rec; do \
			printf '{"commit":"%s","pr":%s,"runs":1,"kind":"bench-record","record":%s}\n' "$$commit" "$(PR)" "$$rec"; \
		done < $$out >> $(TRAJECTORY); \
		echo "bench-record: $$(wc -l < $$out) records of seed $$seed appended to $(TRAJECTORY)"; rm -f $$out

# bench-check runs the benchmark twice on a fresh seed and -compares the
# two runs against the bench-record entries of the newest commit that
# has any (every other kind is another tree or a median), and says
# which commit that is and how many commits HEAD is past it. Two,
# because -compare scales a set's runs to reference speed only when it
# holds more than one; a lone run is read unscaled, at this host's speed.
# CI runs it as a report that never fails the job (its false-positive
# rate is not yet known), so make ci leaves it out.
bench-check:
	@newest=$$(grep -F '"kind":"bench-record",' $(TRAJECTORY) | tail -n 1 | sed 's/^{"commit":"\([^"]*\)".*/\1/'); base=$$(mktemp); out=$$(mktemp); \
		grep -F "{\"commit\":\"$$newest\"," $(TRAJECTORY) | grep -F '"kind":"bench-record",' | $(trajectory-record) > $$base; \
		echo "bench-check: against $$(wc -l < $$base) records of $$newest (base commit $${newest%%+*}, $$(git rev-list --count $${newest%%+*}..HEAD 2>/dev/null || echo '?') commits behind HEAD)"; \
		bash benchmark/run.sh -runs 2 -seed $${SEED:-$$(date +%s)} -out $$out > /dev/null && \
		bash benchmark/run.sh -compare $$base $$out; status=$$?; rm -f $$base $$out; exit $$status

# microbench runs the root package's go-test micro-benchmarks.
microbench:
	$(GO) test -bench=. -benchmem

# bench-staleness runs the straggler-storm chaos suite under the race
# detector and records the degradation ladder's accuracy-versus-overhead
# table (3 modes x 3 seeds) in BENCH_staleness.json. The table is one
# sample, not a pinned result: the storm's tie order under -race varies,
# so a rerun moves a few of its figures.
bench-staleness:
	$(GO) test -race -run TestStragglerStormBoundedStaleness ./internal/escope/
	STALENESS_BENCH_OUT=$(CURDIR)/BENCH_staleness.json \
		$(GO) test -race -run TestRecordStalenessBench ./internal/bench/

# flake-census runs the tests of PKGS (default ./...) COUNT times (default
# 20) in a shuffled order, once plain and once under the race detector,
# and appends each mode's per-test pass/fail counts, failing shuffle
# seeds and wall time to BENCH_flakes.json (tools/flake-census.sh states
# the record). LABEL= names the census, say parent or change.
flake-census:
	bash tools/flake-census.sh -count $(or $(COUNT),20) -label "$(LABEL)" $(or $(PKGS),./...)

# read-gates are the read side's allocation gates, run without the race
# detector (which allocates on its own): a warm scan — full or selective
# — allocates a constant, an aggregate allocates per cell and not per
# tuple, and the selective-scan and aggregate benchmarks still run (one
# iteration each, as a smoke test; the aggregate's two archives print
# their cells beside ns/row). The full-scan benchmark, whose op is
# one tuple (ns/op is ns/tuple), runs over about two scans of its
# 503 616-tuple archive and must report 0 allocs/op: a warm scan
# allocates nothing per tuple. That line cannot see a few allocations
# per block (about 3 900 blocks go by in its million ops);
# TestScanSteadyStateAllocs, which bounds a warm scan to 64 KB in all,
# catches those. TestScanReadVolume is the read-volume gate, a count of
# bytes: on benchmark-shaped segments a selective query reads at most
# 5 % of the segments it scans, and a cursor scan its suffix's blocks,
# one block and the block index.
read-gates:
	$(GO) test -count=1 -run 'TestScanSteadyStateAllocs|TestScanReadVolume' -bench 'BenchmarkScanSelective' -benchtime 1x ./internal/archive/
	$(GO) test -run '^$$' -bench 'BenchmarkScanFull' -benchtime 1000000x -benchmem ./internal/archive/ | $(call zero-allocs,1)
	$(GO) test -count=1 -run 'TestRunAllocsScaleWithCells' -bench 'BenchmarkAggregateRun' -benchtime 1x ./internal/query/

# checkpoint-gates are the checkpointer's zero-alloc gates, as the CI
# job states them: the tuple-block encode, the warm frame encode through
# a kept codec, the fold job's feed, and the gather thread's share of
# AppendRaw over benchmark-shaped replies (which also prints ns/tuple),
# lean and with the benchmark's three standing alerts in the chain, must
# each report 0 allocs/op (and all five must have run).
checkpoint-gates:
	$(GO) test -run '^$$' -bench 'BenchmarkCheckpoint(EncodeTuples|EncodeFrame|Fold|AppendRaw)' -benchmem ./internal/checkpoint/ | $(call zero-allocs,5)

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

# collect-gates are the collection path's zero-alloc gates: the clock
# read every stamp takes (hrtime.Now), the event collector's write with
# and without self-metrics (three benchmarks), and the breaker's decision
# each report 0 allocs/op. The collector's
# self-metrics contract (exact counts from its sequence counter under
# concurrent writers, at the 32-bit boundary and across registry swaps)
# runs under -race.
collect-gates:
	$(GO) test -run '^$$' -bench 'BenchmarkNow$$|BenchmarkEventCollectorWrite' -benchmem ./internal/hrtime/ ./internal/collect/ | $(call zero-allocs,3)
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
# the instance clock (ROADMAP item 1) then has one function to change. It
# also holds the one time domain: a modelled delay waits on the virtual
# clock or not at all, so hrtime.SetScale (kept for benchmark/sut.go, a
# no-op at 0 and 1) appears nowhere else, and the real-time delay path
# (SleepUnscaled, ScaleDelay) stays gone.
one-clock-switch:
	@sites=$$(grep -rnE 'vclock\.(Enable|Disable|Quiesce)\(' --include=*.go . | grep -v _test.go | grep -v '^./internal/vclock/' | cut -d: -f1 | sort -u); \
		if [ "$$sites" != "./internal/core/core.go" ]; then echo "the virtual clock is switched outside internal/core/core.go:" $$sites; exit 1; fi
	@sites=$$(grep -rn 'hrtime\.SetScale(' --include=*.go . | grep -v '^./internal/hrtime/' | grep -v '^./benchmark/' | cut -d: -f1 | sort -u); \
		if [ -n "$$sites" ]; then echo "hrtime.SetScale is called outside internal/hrtime and benchmark/:" $$sites; exit 1; fi
	@sites=$$(grep -rnE 'SleepUnscaled|ScaleDelay' --include=*.go . | cut -d: -f1 | sort -u); \
		if [ -n "$$sites" ]; then echo "the real-time delay path is back:" $$sites; exit 1; fi

# clock-determinism holds the virtual clock's run queue to its contract,
# one seed, one interleaving: the semaphore test that caught the old
# clock advancing across a hand-off, 10 000 times under the race
# detector; the driver-first test (a driver woken at T moves before any
# path step due at T), 1 000 times under the race detector; the model
# fingerprint (small Table 1-3 rows and a vnet fault
# scenario under seeds 0 and 1 against a golden file) and the
# paths-versus-reference test (a contended vnet scenario's full event
# trace, run through vclock.Path and through the one-goroutine-step-per-
# delay reference, byte for byte under seeds 0-2), the hand-off step
# tests (each Queue and Event step kind against the same operations
# call by call, and off the clock) and the switch-count gate
# (TestPathsCutSwitches), 20 times each under the race detector; a Path
# run, which must report 0 allocs/op; then the
# Examples and esbench -markdown (quick preset), each run twice, whose
# outputs must match byte for byte once go test's wall-clock durations
# are cut from the Examples' -v lines (esbench writes its wall time and
# the clock's counters to stderr).
clock-determinism:
	$(GO) test -race -count=10000 -run '^TestSemParallelSlots$$' ./internal/vclock/
	$(GO) test -race -count=1000 -run '^TestDriverWokenAtTSeesNoPathStepDueAtT$$' ./internal/vclock/
	$(GO) test -race -count=20 -run '^TestModelFingerprint$$' ./internal/bench/
	$(GO) test -race -count=20 -run '^TestPathsMatchReference$$' ./internal/vnet/
	$(GO) test -race -count=20 -run '^(TestPath(Push|Pop|Wait|Fire|HandOffs)MatchSteps|TestPathHandOffsOffClock|TestPopStepWokenByClose)$$' ./internal/vclock/
	$(GO) test -race -count=20 -run '^TestPathsCutSwitches$$' ./internal/bench/
	$(GO) test -run '^$$' -bench 'BenchmarkPathRun' -benchtime 20000x -benchmem ./internal/vclock/ | $(call zero-allocs,1)
	@d=$$(mktemp -d); strip='s/ \([0-9.]+s\)$$//; s/\t[0-9.]+s$$//'; \
		for i in 1 2; do $(GO) test -count=1 -run '^Example' -v . > $$d/raw$$i || { cat $$d/raw$$i; rm -rf $$d; exit 1; }; \
			sed -E "$$strip" $$d/raw$$i > $$d/examples$$i; done; \
		for i in 1 2; do $(GO) run ./cmd/esbench -markdown > $$d/esbench$$i 2>/dev/null || { rm -rf $$d; exit 1; }; done; \
		diff $$d/examples1 $$d/examples2 && diff $$d/esbench1 $$d/esbench2; status=$$?; rm -rf $$d; \
		if [ $$status -ne 0 ]; then echo "clock-determinism: two runs of one seed differ"; exit 1; fi; \
		echo "clock-determinism: Examples and esbench -markdown repeat byte for byte"

# MODEL_CLOCK_PKGS are the packages whose tests run the model on the
# virtual clock rather than on the wall clock at a shrunken delay scale.
MODEL_CLOCK_PKGS := ./internal/cluster ./internal/collect ./internal/escope ./internal/monitor ./internal/paths ./internal/reconfig ./internal/viz ./internal/vnet

# model-clock-race runs them under the race detector in a shuffled order,
# five times over: a test that still leans on real-time progress, or a
# driver that parks on the clock as if it were a model goroutine, shows
# here.
model-clock-race:
	$(GO) test -race -shuffle=on -count=5 $(MODEL_CLOCK_PKGS)

# archive-race runs the trace archive's tests under the race detector.
archive-race:
	$(GO) test -race ./internal/archive/

# chaos-e2e runs the two chaos end-to-end tests under the race detector,
# three seeds each: a gateway crash the repair manager mends by
# re-parenting, after which coverage is whole again, and a straggler
# storm the bounded-staleness rung rides out.
chaos-e2e:
	$(GO) test -race -count=1 -run 'TestGatewayCrashReparentRestoresCoverage/seed[123]' ./internal/reconfig/
	$(GO) test -race -count=1 -run 'TestStragglerStormBoundedStaleness/seed[123]' ./internal/escope/

# checkpoint-reference holds the checkpointer, whose jobs run behind the
# gather thread, to its synchronous reference under the race detector,
# twenty times over.
checkpoint-reference:
	$(GO) test -race -count=20 -run 'TestCheckpointerMatchesReference' ./internal/checkpoint/

# recovery-e2e runs the front-end recovery end-to-end tests under the
# race detector: the crash matrix (it skips under -short, so test-short
# never reaches it) and the clean-seal failover at the root, the
# checkpoint ladder in internal/reconfig, System.Recover's undo of a
# partial start in internal/core, and the load-balance monitor's
# floors-only deduplication (a floor at Seq 0 included) and
# refused-build release in internal/monitor.
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
# the others' analysis threads running. The same runs hold every
# self-metrics counter to the count its owner keeps ("one count, two
# views"), a scope's through faults, a straggler storm and a repair,
# and a whole System's on one registry. The chaos test, whose coverage
# dip lasts only from a partition to its heal, runs 20 times more.
monitor-e2e:
	$(GO) test -race -count=3 ./internal/monitor/
	$(GO) test -race -count=20 -run '^TestChaosMonitoringSurvivesCrashPartitionHeal$$' ./internal/monitor/
	$(GO) test -race -count=3 -run 'TestArchiveReplayMatchesLiveLoadBalance|TestFigure3Monitors|TestFigure4Statsm' .
	$(GO) test -race -count=3 -run 'TestStoppingOneMonitorLeavesOthersRunning|TestRecoverStatsmKeepsAnalysing|TestSystemCountersReadOwners' ./internal/core/
	$(GO) test -race -count=3 -run 'TestScopeCountersReadOwners' ./internal/escope/

# fault-e2e repeats the host-crash transition test under the race
# detector and a shuffled order, 200 times: once HostDown reports a
# crashed host, a call on a connection dialled before the crash fails
# with ErrConnClosed, never ErrHostDown (a fault event applies in one
# critical section).
fault-e2e:
	$(GO) test -race -shuffle=on -count=200 -run '^TestCrashFailsCallsAndRestartRecovers$$' ./internal/vnet/

# fuzz runs every fuzz target briefly (15 s each, 2½ minutes in all).
# It is CI-only: make ci leaves it out to stay quick to run by hand.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=15s ./internal/paths/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeReply -fuzztime=15s ./internal/paths/
	$(GO) test -run='^$$' -fuzz=FuzzSegmentDecode -fuzztime=15s ./internal/archive/
	$(GO) test -run='^$$' -fuzz=FuzzColumnarRoundTrip -fuzztime=15s ./internal/archive/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeColumn -fuzztime=15s ./internal/archive/
	$(GO) test -run='^$$' -fuzz=FuzzReplayMeta -fuzztime=15s ./internal/archive/
	$(GO) test -run='^$$' -fuzz=FuzzParseQuery -fuzztime=15s ./internal/query/
	$(GO) test -run='^$$' -fuzz=FuzzCellIndex -fuzztime=15s ./internal/query/
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointDecode -fuzztime=15s ./internal/checkpoint/
	$(GO) test -run='^$$' -fuzz=FuzzCodec -fuzztime=15s ./internal/wire/

# benchmark-harness vets and tests the benchmark harness, a module of its
# own that the root ./... patterns never reach: it is what notices an API
# change that breaks benchmark/sut.go.
benchmark-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

# eslint is the project-specific invariant suite (DESIGN.md §8). The
# same run reports every //lint:allow that lacks a reason, names an
# unknown analyzer, or suppresses no finding.
eslint:
	$(GO) run ./cmd/eslint ./...

# fmt-check fails when gofmt would change any Go file in the repository
# (the benchmark module and the lint fixtures included).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt would reformat:" $$out; exit 1; fi

lint: vet eslint fmt-check

# ci mirrors the GitHub Actions job, minus the tool installs
# (staticcheck, govulncheck) and the CI-only fuzz step.
ci: build lint leaf-packages one-clock-switch test-short clock-determinism model-clock-race examples benchmark-harness archive-race chaos-e2e recovery-e2e monitor-e2e fault-e2e checkpoint-reference read-gates gather-gates checkpoint-gates append-gates engine-gates collect-gates
