# The targets here are exactly what CI runs (.github/workflows/ci.yml),
# so a green `make check` locally means a green build.

GO ?= go

# Fuzz smoke duration per target (CI uses the default; raise locally for
# real fuzzing sessions: make fuzz FUZZTIME=10m).
FUZZTIME ?= 30s

# Coverage-gated packages and the minimum total coverage each must hold.
COVER_PKGS = ./internal/store ./internal/live ./internal/core
COVER_MIN  = 70

.PHONY: all build test race vet lint fmt fmt-check obs-check est-check perfbench-check bench bench-smoke bench-json snapshot-bench test-nommap stress fuzz cover cover-check check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# What the CI lint job runs: vet always, staticcheck when installed
# (`go install honnef.co/go/tools/cmd/staticcheck@latest`).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Observability gate (mirrored as a CI step): the exposition-format
# linter over a live /metrics scrape, the legacy series-name contract,
# per-route latency histograms, and the request-ID round trip.
obs-check:
	$(GO) test -count=1 \
		-run 'TestMetricsExposition|TestLegacyMetricSeries|TestEveryV1Route|TestServerRequestID|TestLint|TestExpositionFormat|TestMiddleware' \
		./internal/obs/ ./cmd/rdfsumd/

# Cardinality-estimation gate (mirrored as a CI step): the planner
# non-regression proof on the committed BSBM/LUBM mixes, the median
# q-error threshold over the mixes and the golden corpora, and the
# single-pattern exactness property — fails when estimation accuracy or
# the chosen join orders regress.
est-check:
	$(GO) test -count=1 \
		-run 'TestPlannerOrderNonRegression|TestEstimationAccuracyMixes|TestEstimatorQErrorGolden|TestEstimatorExactSinglePattern' \
		./internal/query/

# The benchmark program (perfbench/) is its own module, so the root's
# build, vet and test never see it: vet it and run its short tests here
# (mirrored as a CI step), so an API change to rdfsum cannot break the
# benchmark unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# Full benchmark sweep (the 1M-triple load benchmark takes a while).
bench:
	$(GO) test -run 'XXX-none' -bench . ./...

# One iteration of every benchmark, skipping the slow sweeps — the CI
# smoke check that perf code at least runs.
bench-smoke:
	$(GO) test -run 'XXX-none' -bench . -benchtime 1x -short ./...

# The CI bench job: smoke numbers with allocations, archived as JSON.
# Redirect-then-cat (not a tee pipe) so a benchmark failure fails the
# target instead of being masked by the pipe's exit status.
bench-json:
	@$(GO) test -run 'XXX-none' -bench . -benchtime 1x -benchmem -short ./... > bench.txt || (cat bench.txt; rm -f bench.txt; exit 1)
	@cat bench.txt
	$(GO) run ./cmd/benchjson -in bench.txt -out BENCH_ci.json
	@rm -f bench.txt

# Snapshot-format benchmarks at full scale (100k/1M/10M cold opens plus
# the zero-copy mapped scan): the acceptance evidence that open cost
# stays flat as the snapshot grows. Merged into BENCH_ci.json on top of
# whatever bench-json last archived.
# Seeding the 10M-triple store dominates the runtime (several minutes);
# SNAPBENCH_SHORT=1 keeps only the 100k size.
snapshot-bench:
	@$(GO) test -run 'XXX-none' -bench 'BenchmarkOpenLiveCold|BenchmarkSnapshotScanMmap|BenchmarkSnapshotPointLookupMmap' \
		-benchtime 1x -benchmem -timeout 60m $(if $(SNAPBENCH_SHORT),-short) \
		./internal/live/ ./internal/store/ > snapbench.txt || (cat snapbench.txt; rm -f snapbench.txt; exit 1)
	@cat snapbench.txt
	$(GO) run ./cmd/benchjson -in snapbench.txt -merge BENCH_ci.json -out BENCH_ci.json
	@rm -f snapbench.txt

# The mmap-free portability build: every mapped path falls back to eager
# reads (mirrored as a CI job).
test-nommap:
	$(GO) build -tags nommap ./...
	$(GO) test -tags nommap ./...

# Live-subsystem stress under the race detector (mirrored as a CI step):
# readers query epoch snapshots while a writer ingests batches and
# compacts; readers materialize every maintained summary kind during
# ingest; snapshot iterators are held across concurrent Compact calls
# while deletes land (tiered-index generation swaps); plus the WAL
# crash-recovery property test and the replication suite (bootstrap,
# tail, re-bootstrap across compaction). -count=2 reruns with fresh
# schedules. replication-smoke then boots a real leader + follower pair
# as separate processes and asserts catch-up, identical /v1/query
# results and post-delete convergence.
stress: replication-smoke
	$(GO) test -race -count=2 \
		-run 'TestLiveStress|TestLiveMaintainedStress|TestLiveIngestDuringConcurrentQueries|TestLiveCrashRecoveryPrefix|TestLiveSnapshotAcrossCompactStress|TestLiveIngestQueueBackpressureStress|TestFollower' \
		./internal/live ./cmd/rdfsumd ./internal/repl

# Two-process replication smoke (mirrored as a CI step): leader ingests,
# follower bootstraps + tails to lag 0, query results match on both
# sides, deletes and a compaction converge.
replication-smoke:
	$(GO) test -race -count=1 -run 'TestE2EReplication' ./cmd/rdfsumd

# Streaming-ingest smoke (mirrored as a CI step): a real rdfsumd boots
# from a cold gzipped Turtle dump straight into serving summaries and
# queries, then a zstd-compressed streaming upload lands through the
# typed client.
ingest-smoke:
	$(GO) test -race -count=1 -run 'TestE2EStreamingIngest' ./cmd/rdfsumd

.PHONY: replication-smoke ingest-smoke

# Fuzz smoke (mirrored as a CI job): the N-Triples parser, the Turtle
# statement splitter's bit-identity property (split+parallel parse ==
# sequential parse, byte for byte), and the WAL record decoder/replayer,
# each seeded from the committed corpus under the package's testdata/fuzz/
# directory.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -run='^$$' ./internal/ntriples
	$(GO) test -fuzz=FuzzTurtleSplit -fuzztime=$(FUZZTIME) -run='^$$' ./internal/turtle
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) -run='^$$' ./internal/live
	$(GO) test -fuzz=FuzzWALRecordDecode -fuzztime=$(FUZZTIME) -run='^$$' ./internal/live

# Per-package coverage table for the storage/live/engine core.
cover:
	@for p in $(COVER_PKGS); do \
		$(GO) test -count=1 -coverprofile=.cover.tmp $$p > /dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=.cover.tmp | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
		printf "%-24s %6s%%\n" $$p $$pct; \
	done; rm -f .cover.tmp

# The CI coverage gate: fail when any gated package drops below
# $(COVER_MIN)% total statement coverage.
cover-check:
	@fail=0; for p in $(COVER_PKGS); do \
		$(GO) test -count=1 -coverprofile=.cover.tmp $$p > /dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=.cover.tmp | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
		printf "%-24s %6s%%" $$p $$pct; \
		if awk -v p=$$pct -v min=$(COVER_MIN) 'BEGIN{exit !(p+0 < min)}'; then \
			printf "  FAIL (< $(COVER_MIN)%%)\n"; fail=1; \
		else \
			printf "  ok\n"; \
		fi; \
	done; rm -f .cover.tmp; exit $$fail

check: build vet fmt-check race obs-check est-check perfbench-check bench-smoke cover-check

clean:
	$(GO) clean ./...
