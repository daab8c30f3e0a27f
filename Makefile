GO ?= go

# Minimum statement coverage for the runtime-critical packages (cover-check).
# Raised with the shard-migration code (Store.Rebalance, BatchDelete,
# Job.Rebalance) so the adaptive-ownership paths cannot regress untested.
COVER_FLOOR_AMPC ?= 85
COVER_FLOOR_DHT  ?= 90

# Per-target budget for the short fuzz pass (fuzz-smoke).
FUZZTIME ?= 10s

.PHONY: all build test race vet fmt ci loc microbench bench-smoke bench-check bench-wall bench-wall-smoke cover-check fuzz-smoke examples-smoke backend-matrix chaos-smoke serving-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

# loc prints the Go lines of every package, non-test and test files apart —
# every line counts (code, comments, blanks): the figures ROADMAP.md and
# CHANGES.md quote when a change claims to shrink something.
loc:
	@find . -name '*.go' -not -path './.bench_*' | sort | xargs wc -l | awk ' \
		$$2 == "total" { next } \
		{ dir = $$2; sub(/\/[^\/]*$$/, "", dir); if (!(dir in seen)) { seen[dir] = 1; dirs[++n] = dir } \
		  if ($$2 ~ /_test\.go$$/) { test[dir] += $$1; tt += $$1 } else { code[dir] += $$1; tc += $$1 } } \
		END { printf "%8s %8s  %s\n", "non-test", "test", "package"; \
		      for (i = 1; i <= n; i++) printf "%8d %8d  %s\n", code[dirs[i]], test[dirs[i]], dirs[i]; \
		      printf "%8d %8d  total\n", tc, tt }'

ci: fmt vet build test race cover-check fuzz-smoke microbench bench-check examples-smoke

# examples-smoke builds and runs every example end to end (they were
# compiled but never executed by CI before); each must exit 0 on its own
# toy input, which catches API breaks that type-check but fail at runtime.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/socialnetwork
	$(GO) run ./examples/clustering
	$(GO) run ./examples/cycles
	$(GO) run ./examples/concurrent

# backend-matrix runs the cross-backend equivalence suites on every storage
# engine: every core algorithm must produce byte-identical, oracle-valid
# results whether the shards live in in-memory maps, disk log files, or
# behind a loopback socket.  The suites name their subtests
# backend/placement, so the CI backend-matrix job splits the same run into
# three parallel jobs with -run '($(BACKEND_SUITES))/rpc' and so on.
BACKEND_SUITES = TestBackendsPreserveAllFiveAlgorithms|TestDiskBackendCompletesPastMemoryBudget|TestAdaptiveOwnershipPreservesAlgorithms
backend-matrix:
	$(GO) test -run '$(BACKEND_SUITES)' ./internal/bench/

# chaos-smoke runs the five-algorithm fault-injection equivalence suite under
# the race detector: every core algorithm, on every storage backend and both
# placement policies, must produce byte-identical output while the pinned
# fault schedule (bench.ChaosFaultPlan) injects transient errors, latency
# spikes, shard crash windows, torn disk tails and rpc connection drops —
# with the suite asserting that every recovery tier actually fired.
chaos-smoke:
	$(GO) test -race -run 'TestChaos|TestSubroundRecovery|TestFaultPlan|TestTornTail|TestRPC' ./internal/bench/ ./internal/ampc/ ./internal/dht/

# serving-smoke guards the Plan/Session/Job serving layer: the concurrency
# seams (admission, shared stores, plan cache, per-job cancellation) under
# the race detector on small inputs, then the full-scale acceptance
# properties — byte-identical concurrent outputs across every backend and
# placement, and the >= 1.5x throughput win on the hub-heavy stand-ins —
# without the race detector's slowdown.  The concurrent-jobs equivalence runs
# three times: what it guards against are collisions between jobs racing
# through the same session state (two stores handed one disk directory),
# which a single run misses about every other time.  The soak (thousands of
# store-opening jobs on one session; stores, caches, goroutines, open files,
# heap and disk directory back to the shared-only baseline after every wave)
# runs a tenth of its jobs under the race detector and all of them without.
serving-smoke:
	$(GO) test -race -short -run 'TestServing|TestConcurrentJobs|TestConcurrentOpenStore|TestMaxJobs|TestAdmission|TestJobCancel|TestJobClose|TestStoreCounters|TestSoak|TestPlanCache|TestEntryPoints|TestNewJobOnClosed|TestOpenSharedStore|TestConcurrentMakespan' ./internal/ampc/ ./internal/bench/ ./internal/simtime/
	$(GO) test -run 'TestServingSmokeMeetsAcceptance' ./internal/bench/
	$(GO) test -run 'TestSoakJobStoreLifetime' ./internal/ampc/
	$(GO) test -count=3 -run 'TestConcurrentJobsByteIdenticalAcrossBackends' ./internal/bench/

# bench-smoke runs the gated experiments on their pinned smoke datasets (seed
# 1) and writes their gate rows — the machine-readable snapshot that tracks
# each win across the repository's history (EXPERIMENTS.md lists the gates).
bench-smoke:
	$(GO) run ./cmd/ampcbench -experiment batch,rebalance,backend,pipeline,locality,adaptive,chaos,serving -json BENCH_smoke.json

# bench-check re-runs the experiments present in the committed
# BENCH_smoke.json and fails when one of its gates no longer holds (a
# fractional metric down >10%, a mean past its variance-derived floor or
# ceiling, outputs no longer identical and valid, a row missing).  The fresh
# measurement lands in BENCH_fresh.json (uploaded as an artifact by the
# bench-regression CI job).
bench-check:
	$(GO) run ./cmd/benchcheck -baseline BENCH_smoke.json -out BENCH_fresh.json

# bench-wall runs the contraction workload of the wall-clock benchmark (msf +
# connectivity on the HL stand-in, benchmark/README.md) on seed 1 and prints
# its end-to-end metrics — measured time, allocation and store traffic, not
# the modeled clock bench-check guards.  `go run ./benchmark` runs all six
# workloads.  bench-wall-smoke is the benchmark's own fast test suite: every
# workload at -scale tiny through the oracles, plus the BENCHMARK.json sync.
bench-wall:
	$(GO) run ./benchmark -workload contract_mem -seed 1

bench-wall-smoke:
	$(GO) test ./benchmark

# microbench runs the layer micro-benchmarks once each — the three shuffle
# stages on the HL stand-in (DirectGraph, PermuteGraph, SortGraph), the MSF
# PrimSearch round and contraction tail (a per-search allocation shows in
# PrimSearch's allocs/op, a full sort of the survivors in FinishMSF's
# ns/edge), the MIS and matching search stages (allocs/vertex of the rankadj
# round bodies), the batch read path (the streamed cycle walk, a warm
# ReadMany, the per-batch shard grouping), the placement lookup and the mem
# store path (fill, freeze, read back: the cycle job's small values and the HL
# adjacency lists) — so they keep compiling and running; it measures nothing.
# For numbers: go test -run '^$$' -bench <name> -benchmem -count 5 <package>.
microbench:
	$(GO) test -run '^$$' -bench 'BenchmarkDirectGraph$$|BenchmarkPermuteGraph$$|BenchmarkSortGraph$$|BenchmarkPrimSearch$$|BenchmarkFinishMSF$$|BenchmarkSearchStages$$|BenchmarkStreamWalk$$|BenchmarkReadManyWarm$$|BenchmarkShardGroups$$|BenchmarkLocalTo$$|BenchmarkMemStoreSmall$$|BenchmarkMemStoreAdjacency$$' -benchtime=1x \
		./internal/core/mis ./internal/core/matching ./internal/core/msf ./internal/core/cycle ./internal/ampc ./internal/dht

# cover-check enforces a statement-coverage floor on the runtime-critical
# packages (the segment executor in internal/ampc and the store layer in
# internal/dht), so new executor or store code cannot land untested.
cover-check:
	@$(GO) test -coverprofile=cover_ampc.out ./internal/ampc > /dev/null
	@$(GO) test -coverprofile=cover_dht.out ./internal/dht > /dev/null
	@for spec in "internal/ampc cover_ampc.out $(COVER_FLOOR_AMPC)" \
	             "internal/dht cover_dht.out $(COVER_FLOOR_DHT)"; do \
		set -- $$spec; \
		pct=$$($(GO) tool cover -func=$$2 | tail -1 | sed 's/.*[[:space:]]\([0-9.]*\)%$$/\1/'); \
		echo "coverage $$1: $$pct% (floor $$3%)"; \
		ok=$$(echo "$$pct $$3" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "coverage of $$1 fell below $$3%" >&2; exit 1; fi; \
	done

# fuzz-smoke gives every fuzz target a short budget (the boundary-key, slot
# table, disk log replay, rpc frame and codec round-trip fuzzers of the dht
# and codec packages, and simtime's Price against the per-operation reference).  Go only allows one -fuzz pattern per invocation, so the targets
# run one at a time; seed corpora and testdata regressions always run via
# plain `make test`.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzRangeOwner -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz=FuzzOwnerAffinePlacement -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz=FuzzOwnershipOwnerOf -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz=FuzzRederiveBoundaries -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz='FuzzRangeSet$$' -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz=FuzzMemTable -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz=FuzzDiskReplay -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz=FuzzRPCFrame -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz=FuzzDecodeNodeIDs -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzDecodeWeightedNeighbors -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzWeightedList -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzNodeList -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzNodeIDRoundTrip -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzPrice -fuzztime=$(FUZZTIME) ./internal/simtime
