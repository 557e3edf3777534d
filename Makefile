# RPC-V reproduction — build, test and benchmark entry points.
#
#   make            vet + lint + build + test (the tier-1 gate)
#   make lint       project-specific analyzers (cmd/rpcv-lint): event-
#                   loop discipline, proto codec completeness, disk-
#                   error hygiene — standalone (cross-package call-
#                   graph walk) and as go vet -vettool (covers _test.go
#                   files); then the tombstones: one git grep per row of
#                   internal/lint/tombstones.tsv, failing if a name of
#                   deleted code is back where its row looks; and a
#                   check that the simulated-figure side (internal/
#                   experiments, cmd/rpcv-bench) imports no real-time
#                   package
#   make bench      full benchmark run (regenerates every figure)
#   make smoke      1-iteration benchmark smoke (fast CI signal), then
#                   every examples/ program, failing on a non-zero exit
#   make allocs     where a 64 B call's bytes go: BenchmarkSmallCallAllocs
#                   profiled (-memprofile) at 2 and at 12 iterations, and
#                   the difference — 10 000 calls, set-up and warm-up
#                   cancelled out — printed by allocation site in B per
#                   call (go tool pprof -top -sample_index=alloc_space);
#                   the profiles and test binary stay under $TMPDIR
#   make sched      print the scheduling-policy table
#   make bench-check
#                   vet + test the repo's benchmark (bench/ is its own
#                   Go module: the root's ./... does not reach it, yet
#                   it compiles against a dozen internal packages)
#   make sim        conformance + chaos smoke: 2 config cells x 2 fault
#                   scenarios on real loopback clusters (rpcv-sim -quick)
#   make sim-full   the full conformance matrix: both stores and every
#                   scheduling policy, each under the full fault taxonomy
#   make race       race-detect the whole tree
#   make obs        race-detect the observability plane (registry,
#                   tracer, admin endpoints, flight recorder, live-grid
#                   acceptance)

GO ?= go

.PHONY: all vet lint build test bench bench-check smoke allocs sched sim sim-full race obs ci

all: vet lint build test

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/rpcv-lint ./...
	$(GO) build -o $(or $(TMPDIR),/tmp)/rpcv-lint ./cmd/rpcv-lint
	$(GO) vet -vettool=$(or $(TMPDIR),/tmp)/rpcv-lint ./...
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
ALLOCS_RUN = $(GO) test -run '^$$' -bench '^BenchmarkSmallCallAllocs$$' -memprofilerate 512 -o $(ALLOCS_DIR)/rpcv.test

allocs:
	mkdir -p $(ALLOCS_DIR)
	$(ALLOCS_RUN) -benchtime 2x -memprofile $(ALLOCS_DIR)/base.prof .
	$(ALLOCS_RUN) -benchtime 12x -memprofile $(ALLOCS_DIR)/calls.prof .
	$(GO) tool pprof -top -sample_index=alloc_space -unit B -divide_by 10000 \
		-base $(ALLOCS_DIR)/base.prof $(ALLOCS_DIR)/rpcv.test $(ALLOCS_DIR)/calls.prof

sched:
	$(GO) run ./cmd/rpcv-bench -fig sched-compare -quick

sim:
	$(GO) run ./cmd/rpcv-sim -quick

sim-full:
	$(GO) run ./cmd/rpcv-sim

ci: vet lint build test bench-check race smoke sim
