# RPC-V reproduction — build, test and benchmark entry points.
#
#   make            vet + lint + build + test (the tier-1 gate)
#   make lint       project-specific analyzers (cmd/rpcv-lint): event-
#                   loop discipline, proto codec completeness, disk-
#                   error hygiene — standalone (cross-package call-
#                   graph walk) and as go vet -vettool (covers _test.go
#                   files); then greps that fail if a name of the
#                   removed gob codec, per-message transport, files
#                   store, modelled-sleep loops experiment, multi-loop
#                   runtime, user-triggered client log GC (the log is
#                   collected at delivery) or the transport's payload-
#                   sized buffers (the decoder's roomy rule, the large
#                   encode pool) is back in Go sources, this file or
#                   CI, or if the
#                   client or the server encodes a whole message for its
#                   log again
#                   (msglog.EntryOf keeps a large payload by reference),
#                   or if the coordinator keeps its job blobs by hand
#                   again instead of on its msglog.Shelf (deleteInTurn,
#                   writeBlob, StoredJob, changedParts, unwritten),
#                   or if a retired message kind (the per-call fetch,
#                   the shard-map request), the simulator's batched
#                   disk model, sched's policy registry, the
#                   coordinator's speculation-factor knob, the
#                   transport's redial backoff or cross-shard work
#                   stealing is back, or the fleet monitor's grader,
#                   parser, cluster view or shard-sync knob is back,
#                   or if rt.Start boots a node outside internal/grid,
#                   or if the simulated-figure side (internal/
#                   experiments, cmd/rpcv-bench) imports a real-time
#                   package or grows a JSON writer again
#   make bench      full benchmark run (regenerates every figure)
#   make smoke      1-iteration benchmark smoke (fast CI signal), then
#                   every examples/ program, failing on a non-zero exit
#   make shard      print the shard-scaling table (quick sweep)
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

.PHONY: all vet lint build test bench bench-check smoke shard sched sim sim-full race obs ci

all: vet lint build test

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/rpcv-lint ./...
	$(GO) build -o $(or $(TMPDIR),/tmp)/rpcv-lint ./cmd/rpcv-lint
	$(GO) vet -vettool=$(or $(TMPDIR),/tmp)/rpcv-lint ./...
	! git grep -nE 'encoding/gob|LegacyTransport|legacy-transport|WireGob|CodecGob|CodecForWire|ParseWire|OpenFiles' -- '*.go' .github
	! git grep -nE 'Loops[S]cale|loops[-]scale' -- '*.go' Makefile .github
	! git grep -nE 'Partitioned[H]andler|Loop[I]nfo|Lane[r]|Do[O]n\(|DoAsync[O]n\(|Ping[L]oop|Loop[F]or\(|loop[T]agSep|RPCV_[L]OOPS' -- '*.go' Makefile .github
	! git grep -nE 'GC[N]ow' -- '*.go'
	! git grep -nE 'roomy[F]rames|large[P]ool|GetBuffer[F]or' -- '*.go' Makefile .github
	! git grep -nE 'proto\.Encode[M]essage\(' -- 'internal/client/*.go' 'internal/server/*.go' ':!*_test.go'
	! git grep -nE 'deleteIn[T]urn|writeB[l]ob|Stored[J]ob\b|changedP[a]rts' -- '*.go'
	! git grep -nE 'unwr[i]tten' -- 'internal/coordinator/*.go'
	! git grep -nE 'Fetch[R]esult|Fetch[R]eply|FetchC[a]ll|ShardMap[R]equest|ShardMap[R]eply|BatchR[e]source|sched\.R[e]gister|Speculate[F]actor|-specul[a]te' -- '*.go' Makefile .github
	! git grep -nE 'backoff[M]in|backoff[M]ax|jitter\(back[o]ff' -- 'internal/rt/*.go'
	! git grep -nE 'Steal[R]equest|Steal[G]rant|Work[S]tealing|PopS[t]eal|stolen[O]ut|steal-r[e]claim|ringP[r]imary' -- '*.go' Makefile .github
	! git grep -nE 'Fleet[V]erdict|Shard[V]erdict|cluster[z]|history[z]|Parse[M]etrics|Top[V]iew|slo-[d]ispatch|-shard[s]ync|ShardSync[P]eriod' -- '*.go' Makefile .github
	! git grep -nE 'rt\.Start\(' -- '*.go' ':!internal/rt/' ':!internal/grid/' ':!internal/gridrpc/gridrpc.go' ':!cmd/' ':!bench/'
	! git grep -nE 'write[J]SON|encoding/json' -- cmd/rpcv-bench internal/experiments internal/metrics
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
	$(GO) test -short -run '^$$' -bench 'BenchmarkFig4MessageLogging|BenchmarkShardScale|BenchmarkIdleCall|BenchmarkBusyServers|BenchmarkRetainedPerCall|BenchmarkLargeCallAllocs|BenchmarkSmallCallAllocs' -benchtime 1x .
	for ex in examples/*/; do echo "== $$ex"; $(GO) run ./$$ex || exit 1; done

shard:
	$(GO) run ./cmd/rpcv-bench -fig shard-scale -quick

sched:
	$(GO) run ./cmd/rpcv-bench -fig sched-compare -quick

sim:
	$(GO) run ./cmd/rpcv-sim -quick

sim-full:
	$(GO) run ./cmd/rpcv-sim

ci: vet lint build test bench-check race smoke sim
