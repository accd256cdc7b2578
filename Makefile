# Development entry points. `make check` is the tier-1 gate: vet and the
# gofmt check, build, the full test suite under the race detector, the
# named soaks rerun (the pinned-epoch plan cache soak among them), the
# no-skip and oracle-never-ships guards, and a short fuzzing pass over
# the SQL parser, the shard RPC partial-result decoder, the shard RPC
# restructure body's decoders, the WAL shipping stream's frame reader,
# the cross-source combine, the CSV round trip, the compiled
# attribute-name similarity against its string definition, the
# p-mapping group split against its string-keyed predecessor, the
# compiled WHERE predicate against Op.Eval, the snapshot loader's
# save → load → save round trip and the WAL replay.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet build test race soak no-skip fuzz loc bench bench-compare experiments

check: vet build race soak no-skip fuzz

# Also the formatting gate: any tracked .go file gofmt would rewrite
# fails it.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Also the never-ships guards: no binary under cmd/ may link
# the test-only oracle, and the serving binaries link none of the paper's
# evaluation harness either (the §7.3 baselines, the keyword index, the
# matcher ablation).
build:
	$(GO) build ./...
	! $(GO) list -deps ./cmd/... | grep -q internal/reference
	! $(GO) list -deps ./cmd/udiserver ./cmd/udi | grep -E -q 'internal/(reference|keyword|experiments|matching)$$'

test:
	$(GO) test ./...

# Every package's whole suite under the race detector: the differential
# suites against internal/reference, the crash and fault matrices, the
# conformance suite over every serving shape.
race:
	$(GO) test -race ./...

# The concurrency soaks rerun (-count=2) so a lucky scheduling interleave
# can't hide a race: lock-free readers against the single-writer commit
# path, fan-out readers against shard mutators on both transports, routed
# readers against a fault toggler, group-committing writers replayed into
# the serial oracle, readers across checkpoint rotations, readers pinned
# to epochs on either side of a commit sharing one plan cache.
soak:
	$(GO) test -race -count=2 -run 'TestSnapshotIsolationSoak|TestScatterGatherSoak|TestRouteSoak|TestFeedbackSoakMatchesSerialOracle|TestCheckpointRotationSoak|TestPinnedEpochPlanSoak' ./internal/core ./internal/shard ./internal/shardrpc ./internal/persist

# Every tier-1 test must actually run: a skipped test (t.Skip smuggled in
# by an environment probe or a flaky guard) fails the gate.
no-skip:
	$(GO) test -json ./... | awk '/"Action":"skip"/ && /"Test":/ { print "SKIPPED: " $$0; found=1 } END { if (found) exit 1 }'

# A snapshot load runs a restore and a replay runs a setup, slow beside
# the other targets' inputs, so the new inputs they find are minimized for
# at most 2 s each and the window goes to fuzzing.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz=FuzzDecodePart -fuzztime=$(FUZZTIME) ./internal/shardrpc
	$(GO) test -run '^$$' -fuzz=FuzzDecodeRestructure -fuzztime=$(FUZZTIME) ./internal/shardrpc
	$(GO) test -run '^$$' -fuzz=FuzzReadFrames -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz=FuzzRankMatchesQuadratic -fuzztime=$(FUZZTIME) ./internal/answer
	$(GO) test -run '^$$' -fuzz=FuzzCSVRoundTrip -fuzztime=$(FUZZTIME) ./internal/csvio
	$(GO) test -run '^$$' -fuzz=FuzzAttrSimCompiled -fuzztime=$(FUZZTIME) ./internal/strutil
	$(GO) test -run '^$$' -fuzz=FuzzSplitGroups -fuzztime=$(FUZZTIME) ./internal/pmapping
	$(GO) test -run '^$$' -fuzz=FuzzCompiledPredicate -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run '^$$' -fuzz=FuzzLoadSnapshot -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/persist
	$(GO) test -run '^$$' -fuzz=FuzzReplay -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/persist

# Non-test lines per package and in total — the figure a simplicity PR
# reports in CHANGES.md. The test-only oracle and the benchmark harness
# are not the system and are left out.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './internal/reference/*' ! -path './bench/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# The repository's benchmark (bench/README.md, BENCHMARK.json): every
# workload, both passes, recorded in bench/out/run.json. The Go
# micro-benchmarks stay reachable as `go test -bench=. -benchmem ./...`.
bench:
	bash bench/run.sh

# Compare two recorded runs: make bench-compare BASE=a/run.json CAND=b/run.json
bench-compare:
	$(GO) run ./bench -compare $(BASE) $(CAND)

experiments:
	$(GO) run ./cmd/experiments -exp all
