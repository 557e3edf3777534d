# RPC-V reproduction — build, test and benchmark entry points.
#
#   make            vet + lint + build + test (the tier-1 gate)
#   make lint       project-specific analyzers (cmd/rpcv-lint): event-
#                   loop discipline and disk-error hygiene, in one run
#                   over ./... that covers _test.go files and walks
#                   calls across packages; then the tombstones: one
#                   git grep per row of internal/lint/tombstones.tsv,
#                   failing if a name of deleted code is back where
#                   its row looks; and a check that the simulated-
#                   figure side (internal/experiments, cmd/rpcv-bench)
#                   imports no real-time package
#   make bench      full benchmark run (regenerates every figure)
#   make smoke      1-iteration benchmark smoke (fast CI signal), then
#                   every examples/ program, failing on a non-zero exit
#   make allocs     where a call's bytes go, by allocation site (go tool
#                   pprof -top -sample_index=alloc_space): each benchmark
#                   profiled (-memprofile) at 2 and at 12 iterations, and
#                   the difference printed, so that set-up and warm-up
#                   cancel out — BenchmarkSmallCallAllocs (10 000 64 B
#                   echo calls) in B per call, then
#                   BenchmarkLargeCallAllocs (2 000 64 KiB echo calls)
#                   in KB per call; the profiles and test binary stay
#                   under $TMPDIR
#   make bench-check
#                   vet + test the repo's benchmark (bench/ is its own
#                   Go module: the root's ./... does not reach it, yet
#                   it compiles against a dozen internal packages)
#   make sim        conformance + chaos smoke: 2 config cells x 2 fault
#                   scenarios on real loopback clusters (rpcv-sim -quick)
#   make sim-full   the full conformance matrix: both stores, each under
#                   the full fault taxonomy (what CI runs, under -race)
#   make race       race-detect the whole tree
#   make obs        race-detect the observability plane (registry,
#                   tracer, admin endpoints, flight recorder, live-grid
#                   acceptance)
#   make stress     the tier-1 suite under a fixed CPU load, to tell a
#                   test's verdict from the box's load: STRESS_ROUNDS
#                   (default 10) rounds of `go test -count=3 ./...`
#                   beside one fuzzer (FuzzCodecRoundTrip with one
#                   worker, never more), then the failures per test over
#                   every round; not part of tier-1 or ci. The fuzzer
#                   runs on a copy of internal/proto, restarted every
#                   60 s and after a failure, so the inputs it fails on
#                   are listed at the end, not added to the tree under
#                   test (the copy starts without the committed seeds,
#                   which the rounds' own runs check, so that only new
#                   finds are listed); they and the rounds' logs stay
#                   under $TMPDIR/rpcv-stress

GO ?= go

.PHONY: all vet lint build test bench bench-check smoke allocs sim sim-full race obs stress ci

all: vet lint build test

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/rpcv-lint ./...
	@status=0; while IFS="$$(printf '\t')" read -r pattern paths pr; do \
		case "$$pattern" in ''|'#'*) continue ;; esac; \
		set -f; set -- $$paths; set +f; \
		if git grep -nE "$$pattern" -- "$$@"; then \
			echo "lint: a name PR $$pr deleted is back: $$pattern"; status=1; \
		fi; \
	done < internal/lint/tombstones.tsv; exit $$status
	! $(GO) list -deps ./internal/experiments ./cmd/rpcv-bench | grep -E '^rpcv/internal/(rt|conform|gridrpc|store)$$'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

obs:
	$(GO) test -race ./internal/obs/...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

bench-check:
	cd bench && $(GO) vet . && $(GO) test .

smoke:
	$(GO) test -short -run '^$$' -bench 'BenchmarkFig4MessageLogging|BenchmarkIdleCall|BenchmarkBusyServers|BenchmarkRetainedPerCall|BenchmarkLargeCallAllocs|BenchmarkSmallCallAllocs' -benchtime 1x .
	for ex in examples/*/; do echo "== $$ex"; $(GO) run ./$$ex || exit 1; done

ALLOCS_DIR = $(or $(TMPDIR),/tmp)/rpcv-allocs
ALLOCS_RUN = $(GO) test -run '^$$' -memprofilerate 512 -o $(ALLOCS_DIR)/rpcv.test

allocs:
	mkdir -p $(ALLOCS_DIR)
	$(ALLOCS_RUN) -bench '^BenchmarkSmallCallAllocs$$' -benchtime 2x -memprofile $(ALLOCS_DIR)/base.prof .
	$(ALLOCS_RUN) -bench '^BenchmarkSmallCallAllocs$$' -benchtime 12x -memprofile $(ALLOCS_DIR)/calls.prof .
	$(GO) tool pprof -top -sample_index=alloc_space -unit B -divide_by 10000 \
		-base $(ALLOCS_DIR)/base.prof $(ALLOCS_DIR)/rpcv.test $(ALLOCS_DIR)/calls.prof
	$(ALLOCS_RUN) -bench '^BenchmarkLargeCallAllocs$$' -benchtime 2x -memprofile $(ALLOCS_DIR)/large-base.prof .
	$(ALLOCS_RUN) -bench '^BenchmarkLargeCallAllocs$$' -benchtime 12x -memprofile $(ALLOCS_DIR)/large-calls.prof .
	$(GO) tool pprof -top -sample_index=alloc_space -unit KB -divide_by 2000 \
		-base $(ALLOCS_DIR)/large-base.prof $(ALLOCS_DIR)/rpcv.test $(ALLOCS_DIR)/large-calls.prof

STRESS_ROUNDS ?= 10
STRESS_DIR = $(or $(TMPDIR),/tmp)/rpcv-stress

stress:
	rm -rf $(STRESS_DIR)
	mkdir -p $(STRESS_DIR)/src/internal $(STRESS_DIR)/crashers
	cp go.mod $(STRESS_DIR)/src/
	cp -r internal/proto $(STRESS_DIR)/src/internal/
	rm -rf $(STRESS_DIR)/src/internal/proto/testdata/fuzz
	@(cd $(STRESS_DIR)/src/internal/proto && while [ ! -e $(STRESS_DIR)/stop ]; do \
		$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 60s -fuzzminimizetime 1s -parallel 1 . >> $(STRESS_DIR)/fuzz.log 2>&1; \
		if [ -d testdata/fuzz ]; then mv testdata/fuzz/FuzzCodecRoundTrip/* $(STRESS_DIR)/crashers/; rm -rf testdata/fuzz; fi; \
	done) & fuzz=$$!; \
	trap 'touch $(STRESS_DIR)/stop; wait $$fuzz' EXIT; \
	for i in $$(seq 1 $(STRESS_ROUNDS)); do \
		echo "== round $$i of $(STRESS_ROUNDS)"; \
		$(GO) test -count=3 ./... > $(STRESS_DIR)/round-$$i.log 2>&1 || echo "round $$i failed"; \
	done; \
	echo "== failures per test over $(STRESS_ROUNDS) rounds of -count=3 (none: no line)"; \
	cat $(STRESS_DIR)/round-*.log | sed -nE 's/^ *--- FAIL: ([^ ]+).*/\1/p' | sort | uniq -c | sort -rn; \
	cat $(STRESS_DIR)/round-*.log | sed -nE 's/^FAIL[[:space:]]+([^ ]+).*/package \1/p' | sort | uniq -c | sort -rn; \
	echo "== inputs the fuzzer failed on (none: no line), in $(STRESS_DIR)/crashers"; \
	ls $(STRESS_DIR)/crashers

sim:
	$(GO) run ./cmd/rpcv-sim -quick

sim-full:
	$(GO) run ./cmd/rpcv-sim

ci: vet lint build test bench-check race smoke sim
