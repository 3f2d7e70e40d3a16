# Development entry points. Everything is plain `go` underneath; the
# Makefile just names the workflows.

GO ?= go

# Statement-coverage floor for `make cover`, measured over ./internal/...
# (commands and examples are thin shells around the libraries). The seed
# tree measures 92.1%; the floor leaves a small buffer for flaky branches
# but fails the build on any real erosion.
COVER_MIN ?= 91.0

.PHONY: all build vet test race bench crawl-bench crawl-bench-compare profile bench-check bench-baseline cover fuzz crash-suite dist-suite api-suite parse-suite hostile-suite fresh-suite telemetry-smoke experiments report clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage with a hard floor: writes .cover/coverage.out (git-ignored —
# the profile is a build artifact and must never be committed), prints
# the per-function table tail, and fails if total statement coverage
# drops below COVER_MIN. -coverpkg counts cross-package coverage: the
# conformance suite is the primary exerciser of dist/crawler/checkpoint,
# and without it those packages read artificially low.
COVER_PROFILE := .cover/coverage.out

cover:
	@mkdir -p .cover
	$(GO) test -coverprofile=$(COVER_PROFILE) -coverpkg=./internal/... ./internal/...
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { \
		if (t + 0 < min + 0) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, min; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, min }'

bench:
	$(GO) test -bench=. -benchmem .

# The crawl benchmark (bench/README.md): complete crawls on the simulator
# and the live loopback crawler, reported as pages/s, pages/CPU-s and
# allocations per page, judged against the bounds in BENCHMARK.json.
# crawl-bench-compare builds BASE in a throwaway git worktree and runs
# PAIRS alternating base/head pairs, each judged by `bench -compare`;
# BENCH_FLAGS passes through (e.g. BENCH_FLAGS="-workload sim.jp-detect").
PAIRS ?= 3

crawl-bench:
	$(GO) run ./bench $(BENCH_FLAGS)

crawl-bench-compare:
	@test -n "$(BASE)" || { echo "usage: make crawl-bench-compare BASE=<rev> [PAIRS=n] [BENCH_FLAGS=...]"; exit 2; }
	sh scripts/crawl_bench_compare.sh $(BASE) $(PAIRS) $(BENCH_FLAGS)

# CPU and allocation profiles of the workloads that spend their time in
# different layers: the detector-mode simulator (page synthesis +
# charset detection) and the sequential and parallel live crawls
# (net/http, parse, sinks).
profile:
	@mkdir -p bench/out
	@for w in sim.jp-detect live.seq live.par; do \
		$(GO) run ./bench -workload $$w -seconds 10 \
			-cpuprofile bench/out/cpu-$$w.pprof -memprofile bench/out/mem-$$w.pprof || exit 1; \
	done
	@echo "profiles written; read one with: $(GO) tool pprof -top bench/out/cpu-sim.jp-detect.pprof"

# Append-path benchmarks — the crawl-log Writer and the link DB's Put,
# with and without a per-record fsync — gated against BENCH_frontier.json
# (what CI runs); bench-baseline re-records the baseline on this machine.
# The telemetry *Disabled benchmarks are skipped from the ratio gate: the
# nil no-op path compiles to an empty loop, so their timing is dominated
# by code layout and fetch alignment, not by any property of the code.
# They still run (catching allocations or panics) and stay in the
# baseline for reference.
bench-check:
	$(GO) test -bench=. -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/crawlog ./internal/linkdb | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_frontier.json -min-ns 10000 -skip SyncEach
	$(GO) test -bench=. -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/telemetry | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_telemetry.json -min-ns 10000 -skip Disabled
	$(GO) test -bench=BenchmarkClassify -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/charset | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_classify.json -min-ns 10000
	$(GO) test -bench=BenchmarkDistCrawl -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/dist | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_dist.json -tolerance 0.60
	$(GO) test -bench=BenchmarkJobsAPI -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/jobs | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_api.json -tolerance 0.60
	$(GO) test -bench=BenchmarkParse -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/parse | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_pipeline.json -tolerance 0.60
	$(GO) test -bench=BenchmarkHostileCrawl -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/conformance | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_hostile.json -tolerance 0.60
	$(GO) test -bench=BenchmarkIncrementalCrawl -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/sim | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_fresh.json -tolerance 0.60

bench-baseline:
	$(GO) test -bench=. -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/crawlog ./internal/linkdb | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_frontier.json -update \
		-note "min of 5 single-iteration runs; machine-specific, gate tracks relative drift"
	$(GO) test -bench=. -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/telemetry | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_telemetry.json -update \
		-note "telemetry no-op vs enabled delta; each op records a fixed inner batch; disabled-path timing is code-layout sensitive (empty loop), re-record on drift"
	$(GO) test -bench=BenchmarkClassify -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/charset | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_classify.json -update \
		-note "detect-once classification: pooled detector must stay at 0 allocs/op (the ALLOCS gate)"
	$(GO) test -bench=BenchmarkDistCrawl -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/dist | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_dist.json -update \
		-note "end-to-end distributed crawl over a 400-page loopback space; min of 5 runs, pages/s vs worker count"
	$(GO) test -bench=BenchmarkJobsAPI -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/jobs | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_api.json -update \
		-note "submit-to-done latency of one small job through the HTTP handler; min of 5 runs"
	$(GO) test -bench=BenchmarkParse -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/parse | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_pipeline.json -update \
		-note "streaming parse pipeline over the 200-page corpus; pipeline must stay at 0 allocs/op (the ALLOCS gate) and >=2x legacy"
	$(GO) test -bench=BenchmarkHostileCrawl -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/conformance | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_hostile.json -update \
		-note "full live crawl of the benign conformance space per iteration; defenses=on must stay within noise of defenses=off"
	$(GO) test -bench=BenchmarkIncrementalCrawl -benchtime=1x -count=5 -benchmem -run='^$$' \
		./internal/sim | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_fresh.json -update \
		-note "full incremental crawl (discovery + churn + revisit sweeps) over an evolving 4000-page space per iteration; min of 5 runs"

# Short fuzzing passes over the parsers and concurrent structures;
# extend -fuzztime for real runs. -fuzzminimizetime=100x keeps a pass
# fuzzing instead of spending it minimising new inputs (the default
# allows 60 s each); the last "fuzz: elapsed" line of each pass prints
# its execs.
fuzz:
	$(GO) test -fuzz='^FuzzDetect$$' -fuzztime=30s -fuzzminimizetime=100x ./internal/charset/
	$(GO) test -fuzz=FuzzDetectOracle -fuzztime=30s -fuzzminimizetime=100x ./internal/charset/
	$(GO) test -fuzz=FuzzSplitEquivalence -fuzztime=30s -fuzzminimizetime=100x ./internal/charset/
	$(GO) test -fuzz=FuzzAppendHTMLPage -fuzztime=30s -fuzzminimizetime=100x ./internal/textgen/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s -fuzzminimizetime=100x ./internal/htmlx/
	$(GO) test -fuzz=FuzzParsePipeline -fuzztime=30s -fuzzminimizetime=100x ./internal/parse/
	$(GO) test -fuzz=FuzzReader -fuzztime=30s -fuzzminimizetime=100x ./internal/crawlog/
	$(GO) test -fuzz=FuzzHost -fuzztime=30s -fuzzminimizetime=100x ./internal/urlutil/
	$(GO) test -fuzz=FuzzCrawlogRoundTrip -fuzztime=30s -fuzzminimizetime=100x ./internal/crawlog/
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=30s -fuzzminimizetime=100x ./internal/crawlog/
	$(GO) test -fuzz=FuzzFrontierOps -fuzztime=30s -fuzzminimizetime=100x ./internal/frontier/
	$(GO) test -fuzz=FuzzCheckpointRecover -fuzztime=30s -fuzzminimizetime=100x ./internal/checkpoint/
	$(GO) test -fuzz=FuzzLeaseWireCodec -fuzztime=30s -fuzzminimizetime=100x ./internal/dist/
	$(GO) test -fuzz=FuzzJobSpecDecode -fuzztime=30s -fuzzminimizetime=100x ./internal/jobs/

# Crash-safety suite: kill-resume equivalence against every golden
# trace, crash-at-every-op/byte checkpoint sweeps on the injectable
# filesystem, torn-tail recovery for the append-only stores, and the
# observation-only proof that checkpointing moves no visit.
crash-suite:
	$(GO) test -count=1 -run 'KillResume|CheckpointEnabled|Crash|Checkpoint|Recover|Seen|State' \
		./internal/conformance ./internal/checkpoint ./internal/faults \
		./internal/crawler ./internal/sim ./internal/linkdb

# Distributed-crawl suite: coordinator/worker protocol units, the wire
# codec, and multi-worker kill-resume / lease-migration / coordinator-
# restart equivalence against the golden trace — all under -race.
dist-suite:
	$(GO) test -race -count=1 ./internal/dist/ ./internal/cliutil/
	$(GO) test -race -count=1 -run 'TestDist' ./internal/conformance/

# Crawl-as-a-service suite: the jobs package (spec validation, store,
# admission, daemon lifecycle, the 1000-submitter load driver) and the
# API conformance pair (golden-set job, daemon kill-resume) — all under
# -race, since the daemon is executors + HTTP handlers + pollers.
api-suite:
	$(GO) test -race -count=1 ./internal/jobs/ ./internal/telemetry/
	$(GO) test -race -count=1 -run 'TestGoldenJobAPI|TestKillResumeJobDaemon' ./internal/conformance/

# Parse-pipeline suite: the differential harness (pipeline vs legacy
# composition, scanner vs tokenizer, fast path vs Normalize — 10k cases
# per property), chunk-boundary invariance, the zero-alloc regressions,
# and the urlutil/charset byte-path pins — all under -race.
parse-suite:
	$(GO) test -race -count=1 ./internal/parse/ ./internal/htmlx/ ./internal/urlutil/ ./internal/charset/
	$(GO) test -race -count=1 -run 'TestParsePipelineEquivalence' ./internal/conformance/

# Hostile-web survival suite: the adversarial model's own units, the
# crawler's defense-layer tests (redirect policy, stall watchdog, trap
# quarantine, Retry-After politeness, body-bomb buffer retention), and
# the conformance chaos proofs
# (bounded termination, benign set-equality, kill-resume under
# hostility) — all under -race.
hostile-suite:
	$(GO) test -race -count=1 ./internal/hostile/
	$(GO) test -race -count=1 -run 'TestHostile|TestTrapPath|TestPathOf|TestParseRetryAfter|TestRobotsOversize' \
		./internal/crawler/ ./internal/conformance/

# Recrawl & freshness suite: the evolver's determinism/invariant/
# kill-resume-view units, the server's conditional-GET and evolving-
# serving tests, the revisit scheduler, the incremental sim engine
# (zero-churn conformance, churn accounting, kill-resume equivalence),
# the live crawler's revisit sweeps, and the conformance proofs against
# the golden traces — all under -race.
fresh-suite:
	$(GO) test -race -count=1 ./internal/webgraph/ ./internal/webserve/
	$(GO) test -race -count=1 \
		-run 'TestRevisit|TestChangeStats|TestIncremental|TestTimedEvolving|TestRecrawl|TestParseRetryAfter' \
		./internal/frontier/ ./internal/sim/ ./internal/crawler/ ./internal/conformance/

# End-to-end telemetry check: boots simcrawl with -telemetry-addr and
# asserts /healthz and the key /metrics series over real HTTP; then
# boots crawld in -sim mode and drives a job through the HTTP API.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# Regenerate every paper table/figure at full scale; writes CSVs and an
# HTML report under results/.
experiments:
	mkdir -p results
	$(GO) run ./cmd/experiments -out results -html results/report.html -parallel 4

clean:
	rm -rf results
	$(GO) clean ./...
