# Development entry points. `make check` is the tier-1 gate: vet, build,
# the full test suite under the race detector (including the setup
# fast-path concurrency tests), and a short fuzzing pass over the SQL
# parser and the shard RPC partial-result decoder.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build test race race-setup race-serve race-topology race-feedback api-compat crash-recovery differential-blocked no-skip vet bench bench-compare bench-setup bench-setup-scale bench-route bench-feedback fuzz experiments

check: vet build race race-setup race-serve race-topology race-feedback api-compat crash-recovery differential-blocked no-skip fuzz

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short, targeted -race pass over the setup fast path's concurrency
# surface: lock-free similarity reads racing vocabulary extensions, the
# parallel setup stages, and the parallel index build.
race-setup:
	$(GO) test -race -run 'TestConcurrentAttrSimDuringAdds|TestDeterminismUnderParallelism|TestBuildKeywordIndexParallelEquivalence' ./internal/core ./internal/storage

# Soak the snapshot serving core under the race detector: lock-free
# readers racing the single-writer commit path (feedback, source
# add/remove), plus the HTTP-level deadline and admission-control tests.
# -count=2 reruns the soak so a lucky scheduling interleave can't hide a
# race.
race-serve:
	$(GO) test -race -count=2 -run 'TestSnapshotIsolationSoak|TestSnapshotStableAcrossCommits|TestConcurrentQueriesWithIncrementalAdd|TestQueryDeadline|TestAdmissionControl' ./internal/core ./internal/httpapi

# Topology gate — one coordinator (internal/shard), so one gate, run
# over both of its transports and the replica tier under the race
# detector. The packages' whole suites run once: the in-process and
# networked differentials against the single-core oracle, the crash
# matrix at every journal stage, the gather contract, the fault-injection
# matrix (drops, truncated bodies, slow and hung hosts, lost responses),
# read routing / failover / staleness refusal, and the WAL-shipping
# replica suite. Then the two soaks (concurrent fan-out readers racing
# feedback/add/remove mutators; routed readers, a writer, the prober and
# a fault toggler) rerun so a lucky scheduling interleave can't hide a
# race.
race-topology:
	$(GO) test -race -short ./internal/shard ./internal/shardrpc ./internal/replica ./internal/client ./internal/httpapi/...
	$(GO) test -race -count=2 -run 'TestScatterGatherSoak|TestRouteSoak' ./internal/shard ./internal/shardrpc

# Blocked-vs-dense gate: the LSH-banded sparse similarity matrix must be
# bit-identical to the exhaustive dense fill on the randomized corpus
# battery (reduced count; the full 100-corpus run is in `make test`),
# plus the batch-vs-sequential AddSources differential and the
# zero-fallback counter checks on the evaluation domains.
differential-blocked:
	$(GO) test -short -count=1 -run 'TestSetupDifferentialBlockedVsDense|TestAddSourcesMatchesSequential|TestSetupBlockedCountersOnPaperCorpora|TestAddSourcesBatchOneAppend' ./internal/core ./internal/persist

# Every tier-1 test must actually run: a skipped test (t.Skip smuggled in
# by an environment probe or a flaky guard) fails the gate.
no-skip:
	$(GO) test -json ./... | awk '/"Action":"skip"/ && /"Test":/ { print "SKIPPED: " $$0; found=1 } END { if (found) exit 1 }'

# API compatibility gate: the unversioned legacy routes must keep serving
# (with their Deprecation markers) alongside /v1.
api-compat:
	$(GO) test -run 'TestLegacyAliases|TestFeedbackAdvancesEpoch' ./internal/httpapi

# Group-commit gate: the mixed read/write soak (concurrent writers
# group-committing feedback vs a serial single-writer oracle replaying the
# WAL's commit order) and the scoped-invalidation differentials under the
# race detector; -count=2 reruns the soak so a lucky interleave can't hide
# a race. Then the batched crash matrix (kill at every byte of an
# AppendBatch write) without -race, where the per-offset loop dominates.
race-feedback:
	$(GO) test -race -count=2 -run 'TestFeedbackSoakMatchesSerialOracle' ./internal/persist
	$(GO) test -race -short -run 'TestFeedbackDifferentialScopedVsFull|TestScopedInvalidationNoTwinLeak' ./internal/core
	$(GO) test -run 'TestKillAtEveryBatchOffset|TestKillAtEveryByteOffsetBatched|TestGroupCommitRejectsWithoutLogging' ./internal/wal ./internal/persist

# Durability gate: the torn-write fault-injection matrix (every WAL byte
# offset, plus mid-log corruption refusal at both the wal and store
# layers), then the checkpoint-rotation soak under the race detector
# (readers serving across snapshot rotations).
crash-recovery:
	$(GO) test -run 'TestKillAtEveryByteOffset|TestMidLogCorruptionRefused|TestKillAtEveryWALOffset|TestOpenStoreMidLogCorruptionRefused|TestFailedCommitReplay|TestCrashBetweenAppendAndPublish' ./internal/wal ./internal/persist
	$(GO) test -race -run 'TestCheckpointRotationSoak|TestStoreWarmStart' ./internal/persist

# The repository's benchmark (bench/README.md, BENCHMARK.json): every
# workload, both passes, recorded in bench/out/run.json. The Go
# micro-benchmarks stay reachable as `go test -bench=. -benchmem ./...`.
bench:
	bash bench/run.sh

# Compare two recorded runs: make bench-compare BASE=a/run.json CAND=b/run.json
bench-compare:
	$(GO) run ./bench -compare $(BASE) $(CAND)

# Setup-pipeline benchmark (naive single-threaded baseline vs the fast
# path); snapshots the raw benchmark lines as JSON into BENCH_setup.json.
bench-setup:
	$(GO) test -run '^$$' -bench 'BenchmarkFig7SetupScaling' -benchmem -benchtime=5x . \
	  | tee /dev/stderr \
	  | awk 'BEGIN { print "[" } \
	    /^BenchmarkFig7SetupScaling/ { \
	      printf "%s", comma; comma=",\n"; \
	      n=split($$1, a, "/"); \
	      printf "  {\"case\": \"%s\", \"iters\": %s", a[n], $$2; \
	      for (i = 3; i < NF; i += 2) { printf ", \"%s\": %s", $$(i+1), $$i } \
	      printf "}" \
	    } \
	    END { print "\n]" }' > BENCH_setup.json

# Setup scaling sweep (1k/5k/10k synthetic scale sources, blocked
# LSH-banded sparse similarity matrix vs the dense O(V²) baseline);
# snapshots the raw lines as JSON into BENCH_setup_scale.json. One
# iteration per case — the 10k dense fill alone runs minutes.
bench-setup-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkSetupScale' -benchmem -benchtime=1x -timeout 60m . \
	  | tee /dev/stderr \
	  | awk 'BEGIN { print "[" } \
	    /^BenchmarkSetupScale/ { \
	      printf "%s", comma; comma=",\n"; \
	      n=split($$1, a, "/"); \
	      printf "  {\"case\": \"%s\", \"iters\": %s", a[n], $$2; \
	      for (i = 3; i < NF; i += 2) { printf ", \"%s\": %s", $$(i+1), $$i } \
	      printf "}" \
	    } \
	    END { print "\n]" }' > BENCH_setup_scale.json

# Routed read throughput on one shard plus one replica (primary-only at
# bound 0 vs replica-balanced under a generous bound, parallel readers);
# snapshots the raw lines as JSON into BENCH_route.json.
bench-route:
	$(GO) test -run '^$$' -bench 'BenchmarkRouteReplicaReads' -benchmem -benchtime=20x ./internal/shardrpc \
	  | tee /dev/stderr \
	  | awk 'BEGIN { print "[" } \
	    /^BenchmarkRouteReplicaReads/ { \
	      printf "%s", comma; comma=",\n"; \
	      n=split($$1, a, "/"); \
	      printf "  {\"case\": \"%s/%s\", \"iters\": %s", a[n-1], a[n], $$2; \
	      for (i = 3; i < NF; i += 2) { printf ", \"%s\": %s", $$(i+1), $$i } \
	      printf "}" \
	    } \
	    END { print "\n]" }' > BENCH_route.json

# Feedback commit throughput (group commit across writer counts, with
# concurrent readers, and the fsync-per-commit baseline); snapshots the
# raw lines as JSON into BENCH_feedback.json.
bench-feedback:
	$(GO) test -run '^$$' -bench 'BenchmarkFeedbackThroughput' -benchmem -benchtime=2s ./internal/persist \
	  | tee /dev/stderr \
	  | awk 'BEGIN { print "[" } \
	    /^BenchmarkFeedbackThroughput/ { \
	      printf "%s", comma; comma=",\n"; \
	      n=split($$1, a, "/"); \
	      printf "  {\"case\": \"%s/%s\", \"iters\": %s", a[n-1], a[n], $$2; \
	      for (i = 3; i < NF; i += 2) { printf ", \"%s\": %s", $$(i+1), $$i } \
	      printf "}" \
	    } \
	    END { print "\n]" }' > BENCH_feedback.json

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz=FuzzDecodePart -fuzztime=$(FUZZTIME) ./internal/shardrpc

experiments:
	$(GO) run ./cmd/experiments -exp all
