# RPC-V reproduction — build, test and benchmark entry points.
#
#   make            vet + lint + build + test (the tier-1 gate)
#   make lint       project-specific analyzers (cmd/rpcv-lint): event-
#                   loop discipline, proto codec completeness, atomic
#                   hygiene, disk-error hygiene — standalone (cross-
#                   package call-graph walk) and as go vet -vettool
#                   (covers _test.go files); then greps that fail if
#                   a name of the removed gob codec, per-message
#                   transport, files store, modelled-sleep loops
#                   experiment or user-triggered client log GC (the
#                   log is collected at delivery) is back in Go
#                   sources, this file or CI, or if the client or the
#                   server encodes a whole message for its log again
#                   (msglog.EntryOf keeps a large payload by reference),
#                   or if the simulated-figure side (internal/
#                   experiments, cmd/rpcv-bench) imports a real-time
#                   package or grows a JSON writer again
#   make bench      full benchmark run (regenerates every figure)
#   make smoke      1-iteration benchmark smoke (fast CI signal)
#   make shard      print the shard-scaling table (quick sweep)
#   make sched      print the scheduling-policy + work-stealing tables
#   make bench-check
#                   vet + test the repo's benchmark (bench/ is its own
#                   Go module: the root's ./... does not reach it, yet
#                   it compiles against a dozen internal packages)
#   make sim        conformance + chaos smoke: 2 config cells x 2 fault
#                   scenarios on real loopback clusters (rpcv-sim -quick)
#   make sim-full   the full conformance matrix: both stores, every
#                   scheduling policy and a multi-loop coordinator, each
#                   under the full fault taxonomy
#   make race       race-detect the whole tree
#   make loops      race-detect the runtime + store lanes at 1 and 4
#                   event loops (RPCV_LOOPS drives internal/rt's
#                   multi-loop tests; 1 pins the pre-loops baseline)
#   make obs        race-detect the observability plane (registry,
#                   tracer, admin endpoints, live-grid acceptance)
#   make mon        race-detect the fleet monitor + flight recorder
#                   (parser golden tests, SLO grading, kill-and-bundle
#                   grid acceptance)

GO ?= go

.PHONY: all vet lint build test bench bench-check smoke shard sched sim sim-full race loops obs mon ci

all: vet lint build test

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/rpcv-lint ./...
	$(GO) build -o $(or $(TMPDIR),/tmp)/rpcv-lint ./cmd/rpcv-lint
	$(GO) vet -vettool=$(or $(TMPDIR),/tmp)/rpcv-lint ./...
	! git grep -nE 'encoding/gob|LegacyTransport|legacy-transport|WireGob|CodecGob|CodecForWire|ParseWire|OpenFiles' -- '*.go' .github
	! git grep -nE 'Loops[S]cale|loops[-]scale' -- '*.go' Makefile .github
	! git grep -nE 'GC[N]ow' -- '*.go'
	! git grep -nE 'proto\.Encode[M]essage\(' -- 'internal/client/*.go' 'internal/server/*.go' ':!*_test.go'
	! git grep -nE 'write[J]SON|encoding/json' -- cmd/rpcv-bench internal/experiments internal/metrics
	! $(GO) list -deps ./internal/experiments ./cmd/rpcv-bench | grep -E '^rpcv/internal/(rt|conform|gridrpc|store)$$'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

loops:
	RPCV_LOOPS=1 $(GO) test -race -count=1 ./internal/rt/... ./internal/store/...
	RPCV_LOOPS=4 $(GO) test -race -count=1 ./internal/rt/... ./internal/store/...

obs:
	$(GO) test -race ./internal/obs/...

mon:
	$(GO) test -race ./internal/obs/fleet/... ./internal/cluster/...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

bench-check:
	cd bench && $(GO) vet . && $(GO) test .

smoke:
	$(GO) test -short -run '^$$' -bench 'BenchmarkFig4MessageLogging|BenchmarkShardScale|BenchmarkIdleCall|BenchmarkBusyServers|BenchmarkRetainedPerCall|BenchmarkLargeCallAllocs|BenchmarkSmallCallAllocs' -benchtime 1x .

shard:
	$(GO) run ./cmd/rpcv-bench -fig shard-scale -quick

sched:
	$(GO) run ./cmd/rpcv-bench -fig sched-compare -quick

sim:
	$(GO) run ./cmd/rpcv-sim -quick

sim-full:
	$(GO) run ./cmd/rpcv-sim

ci: vet lint build test bench-check race smoke sim
