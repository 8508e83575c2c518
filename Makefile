GO ?= go

.PHONY: all build test vet race oracle sim mesh-sim stream-sim chaos fuzz-short cover serve-smoke store-smoke cluster-smoke trackeval bench-vet check fuzz bench-core bench-compare bench-cluster bench-stream bench-codec loc clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# serve-smoke boots the real trackd binary on an ephemeral port, submits
# the synthetic study twice, and asserts the second submission is a cache
# hit with byte-identical results and sane /metrics counters.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 ./cmd/trackd

# store-smoke proves perfdb durability end to end, twice over: the
# graceful half (TestStoreSmoke) boots trackd with a persistent store,
# computes a result, SIGTERMs the daemon, and asserts a fresh daemon
# serves the resubmission from disk; the hard half (TestKill9Smoke)
# SIGKILLs the daemon mid-load and asserts the journal replays every
# acknowledged job before /readyz opens.
store-smoke:
	$(GO) test -run 'TestStoreSmoke|TestKill9Smoke' -count=1 ./cmd/trackd

# oracle runs the differential / metamorphic harness: every optimized
# path (grid DBSCAN, grid NN, box-bounded displacement, Needleman–Wunsch)
# checked for exact agreement with the brute-force references in
# internal/oracle across hundreds of seeded scenarios, plus the
# golden-file rendering tests and the seed-sweep determinism check.
oracle:
	$(GO) test -count=1 ./internal/oracle/
	$(GO) test -count=1 -run 'Oracle|Golden|Differential' ./...

# sim replays the seeded whole-schedule simulation of trackd + perfdb
# (submit / duplicate-burst / crash / restart interleavings) under the
# race detector: >=1000 schedules, no result lost, no key computed twice.
sim:
	$(GO) test -race -count=1 -run TestDeterministicSimulationSchedules ./internal/service/

# mesh-sim replays the whole-CLUSTER deterministic simulation under the
# race detector: seeded schedules over a simulated 3-node mesh (submit /
# duplicate bursts on distinct nodes / node crash+restart / partition+
# heal interleavings), proving cluster-wide exactly-once execution,
# R=2 replication with any-node reads, and journal-backed rebalance
# hand-off — plus the replay-races-rebalance schedule and the ring/
# membership unit tests.
mesh-sim:
	$(GO) test -race -count=1 -run 'TestCluster|TestRing|TestMembership|TestParsePeers' ./internal/service/ ./internal/mesh/

# stream-sim replays >=300 seeded live-stream schedules against the
# full service + store stack under the race detector: chunked appends,
# daemon crash/restart mid-stream (sessions resume from their sealed
# windows), and subscriber churn on the event feeds — no sealed window
# lost, no window evaluated twice, and the final persisted export
# bit-exact with the batch pipeline.
stream-sim:
	STREAM_SIM_SCHEDULES=300 $(GO) test -race -count=1 -run TestStreamSim ./internal/service/

# cluster-smoke boots a real 3-node trackd cluster on loopback, submits
# jobs round-robin, SIGKILLs one node, and asserts every stored result
# is still served byte-identically from every survivor.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 ./cmd/trackd

# chaos replays seeded fault schedules against the full service + journal
# + store stack under the race detector: IO faults (short writes, fsync
# failures, torn renames), hard crashes with journal tail tearing, and
# restarts — no acknowledged job lost, no fingerprint computed twice
# (beyond persist failures), byte-identical results after recovery. Also
# bounds journal replay: a 10k-entry journal must recover in < 1s.
chaos:
	$(GO) test -race -count=1 -run 'TestChaosSchedules|TestJournalReplayBound' ./internal/service/

# fuzz-short gives each differential fuzz target a brief budget — enough
# to shake the seeded corpus and mutate around it on every check run.
fuzz-short:
	$(GO) test -run=^$$ -fuzz=FuzzDBSCANDifferential -fuzztime=5s ./internal/cluster/
	$(GO) test -run=^$$ -fuzz=FuzzNNDifferential -fuzztime=5s ./internal/cluster/
	$(GO) test -run=^$$ -fuzz=FuzzDisplacementDifferential -fuzztime=5s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzAlignDifferential -fuzztime=5s ./internal/align/
	$(GO) test -run=^$$ -fuzz=FuzzStreamAppend -fuzztime=5s ./internal/stream/
	$(GO) test -run=^$$ -fuzz=FuzzScenarioRoundTrip -fuzztime=5s ./internal/trackeval/
	$(GO) test -run=^$$ -fuzz=FuzzColbinRoundTrip -fuzztime=5s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzColbinNoPanic -fuzztime=5s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzCanonicalHashDifferential -fuzztime=5s ./internal/trace/

# trackeval runs the tracking-quality gate: the pinned planted-truth
# scenario corpus (all seeds, all families, fault-degraded frames) plus
# the root-cause diagnosis corpus must clear the scorecard floors in
# internal/trackeval/scorecard.go, and the scorecard must be seed-sweep
# deterministic. `trackctl eval -gate` runs the same floors from the CLI.
trackeval:
	$(GO) test -count=1 -run 'TestGate|TestScorecardSeedSweepDeterminism|TestDiagnosisCorpusAllSeeds' ./internal/trackeval/

# cover writes the aggregate statement-coverage profile; the ratchet in
# scripts/check_coverage.sh enforces the floor in CI.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# bench-vet vets and unit-tests the trackbench module. It is a module of
# its own, so `go test ./...` at the root never compiles it: a deleted or
# renamed name it imports would otherwise surface only as a broken
# benchmark run.
bench-vet:
	cd trackbench && $(GO) vet ./... && $(GO) test ./...

# check is the pre-merge gate: static analysis (of the trackbench module
# too), the full suite under the race detector, the oracle harness, the
# chaos/fault-injection schedules, the whole-cluster mesh simulation, the
# live-stream crash/churn simulation, the tracking-quality gate, a short
# fuzz pass, and the daemon end-to-end smokes (including the kill -9
# crash-recovery smoke and the 3-node SIGKILL cluster smoke).
check: vet bench-vet race oracle chaos mesh-sim stream-sim trackeval fuzz-short serve-smoke store-smoke cluster-smoke

# bench-core runs the analysis-core microbenchmark suite (clustering, NN,
# alignment, end-to-end tracking on the largest catalog studies). The
# committed numbers live in BENCH_core.json.
bench-core:
	$(GO) test -run '^$$' -bench BenchmarkCore -benchmem -benchtime 2s ./internal/cluster/ ./internal/align/
	$(GO) test -run '^$$' -bench BenchmarkCore -benchmem -benchtime 5x -timeout 20m .

# bench-compare reruns the suite briefly and gates on the committed
# baseline: >15% geometric-mean time regression across the matched
# benchmarks fails the target (see cmd/benchcmp).
bench-compare:
	{ $(GO) test -run '^$$' -bench BenchmarkCore -benchtime 2x ./internal/cluster/ ./internal/align/ && \
	  $(GO) test -run '^$$' -bench BenchmarkCore -benchtime 2x -timeout 20m .; } | \
	  $(GO) run ./cmd/benchcmp -baseline BENCH_core.json -tolerance 1.15

# bench-cluster boots a 1-node and a 3-node local cluster and drives
# both with the trackload generator, rewriting BENCH_cluster.json.
bench-cluster:
	scripts/bench_cluster.sh

# bench-stream drives live streams against a store-backed trackd with
# open-loop appenders (append vs window-close latency split) and runs
# the incremental-vs-batch window-close microbenchmark, rewriting
# BENCH_stream.json; fails if the incremental close is not >= 3x
# cheaper than the batch rerun.
bench-stream:
	scripts/bench_stream.sh

# bench-codec runs the trace-codec microbenchmarks (text vs binary
# columnar reads/writes over the same oracle trace), rewriting
# BENCH_codec.json; fails if colbin decode is not >= 5x the text parse
# or the cache-hit re-read (the same colbin decode) is not >= 10x.
bench-codec:
	scripts/bench_codec.sh

# loc prints the non-test and test Go line counts of the module and of
# the trackbench module apart: the figures a change states its net line
# delta in. It is a report, not a gate, so check does not run it.
loc_count = printf '%-10s  non-test %6d  test %6d\n' $(1) \
	$$(find $(2) -name .bench_build -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0r cat | wc -l) \
	$$(find $(2) -name .bench_build -prune -o -name '*_test.go' -print0 | xargs -0r cat | wc -l)

loc:
	@$(call loc_count,module,. -path ./trackbench -prune -o)
	@$(call loc_count,trackbench,trackbench)

# A short fuzzing pass over the text trace decoder (lenient + strict).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzLenientRead -fuzztime=30s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzRead$$ -fuzztime=30s ./internal/trace/

clean:
	$(GO) clean ./...
