// Package rpcv is a from-scratch Go reproduction of "RPC-V: Toward
// Fault-Tolerant RPC for Internet Connected Desktop Grids with Volatile
// Nodes" (Djilali, Hérault, Lodygensky, Morlier, Fedak, Cappello —
// SC2004).
//
// The library implements the full RPC-V protocol — three-tier
// architecture, sender-based message logging, unreliable fault
// detectors (heartbeat suspicion) on every component, and passive
// coordinator replication on a virtual ring — together with every
// substrate the paper's evaluation depends on: a deterministic
// discrete-event simulator with calibrated network/disk/database
// models, a real-time TCP runtime, a GridRPC-style API, a fault
// generator, and the synthetic + Alcatel-like workloads.
//
// The coordinator schedules first-come-first-served, as in the paper:
// internal/sched is its pending queue, and a task is re-issued only
// after a heartbeat suspicion (or a server's sync that shows it lost).
// When the suspect was only slow, the first result wins; the other
// instance's server is sent a TaskCancel, and a result that comes
// anyway is deduplicated by CallID.
//
// internal/store is the durable-store layer behind node.Disk. A node
// given a directory (-disk) gets the WAL — a segmented group-commit
// write-ahead log with CRC-framed records, snapshots, compaction and
// torn-tail-tolerant recovery — which batches concurrent log entries
// into shared fsyncs, making blocking-pessimistic logging nearly as
// cheap as optimistic while keeping durability-before-send; a node
// without one gets the volatile in-memory store. internal/msglog routes
// every strategy's durability wait through the store's batch commit
// (node.BatchDisk); the per-entry disk access behind the paper's ~30%
// blocking-pessimistic overhead (figure 4) is the simulator's disk
// model, not an engine. Crash recovery is proven by the
// kill-and-restart coordinator tests in internal/rt.
//
// internal/rt's transport pools connections beyond the paper's
// connection-per-message model: one long-lived connection per peer
// owned by a sender goroutine, a bounded send queue with drop-oldest
// overflow, coalesced flushes, an idle timeout that returns quiet peers
// to connection-less behaviour, and accept-side shedding
// (MaxInboundConns) against fd exhaustion. A failed dial drops its
// batch and the next batch dials again, so a down peer is knocked on at
// the rate the protocol sends to it, and a peer back at its address is
// reached by the next message. The
// paper's fault semantics are untouched — sends never block or fail
// loudly, and connection breaks are never fault signals; heartbeat
// timeouts remain the only suspicion source.
//
// Every runtime hosts its handler on exactly one event loop, the
// paper's model: Start, each Receive, each timer and each completion
// run on it in turn, so no handler takes a lock. Producers that must
// never block — the WAL committer completing a staged write, an
// offloaded service body handing back its result — reach the loop
// through a plain mutex-guarded handoff queue; everything else (received
// messages, Do, Ping) through its bounded mailbox. A second loop per
// coordinator was measured slower on two cores, and deleted.
//
// internal/proto owns the wire format itself: one hand-written binary
// codec with explicit encodings for all 15 message kinds plus JobRecord
// — length-prefixed frames behind a magic version preface, pooled
// encode buffers sized by the WireSize hints, a reusable in-place frame
// decoder with string interning, ≤1 allocation per encode or decode
// (TestBinaryCodecAllocations). The same encoding frames connections
// and storage blobs; input that does not open with the magic is refused
// on the wire and decodes to proto.ErrCorrupt from the disk.
//
// internal/obs is the live observability plane: a concurrency-safe
// labeled metrics registry (atomic counters/gauges and a lock-cheap
// log-bucketed histogram, all nil-safe so instrumentation costs
// nothing when disabled), task-lifecycle tracing — every call leaves
// CallID-correlated span events (submit, enqueue, dispatch, exec,
// result, durable, ack, plus requeue hops) in
// a fixed-size per-node ring, and an assembler joins per-node dumps
// into end-to-end timelines and Chrome trace_event JSON — and an admin
// HTTP endpoint every daemon exposes with -admin: /metrics (Prometheus
// 0.0.4 text), /statusz (JSON snapshot of the event-loop state),
// /healthz, /tracez (span-ring dump) and /debug/pprof/. The
// transport, store, scheduler, coordinator, server and client all
// register into it.
//
// internal/obs/fleet is the flight recorder, run as the fourth daemon
// cmd/rpcv-mon: it polls every node's /healthz, keeps each node's raw
// /metrics text, and when a node fails its probe or stops answering
// two rounds in a row — or on SIGQUIT — captures a post-mortem bundle:
// assembled cross-node timelines (via /tracez + Assemble), Chrome trace
// JSON, each node's metrics text (a dead node's from before it died),
// statusz snapshots and pprof profiles, all in one timestamped
// directory. The conformance matrix captures the same bundle, over an
// in-process source, for a cell that fails.
//
// internal/lint turns two of the codebase's hand-policed invariants
// into machine-checked ones: two project-specific static analyzers run
// by cmd/rpcv-lint in one pass over the tree, test files included.
// loopexclusive walks the static call graph from //rpcv:loop-only
// annotations and reports blocking primitives reachable on the event
// loop, plus off-loop touches of //rpcv:loop-owned handler state;
// diskerr reports discarded errors from node.Disk/store calls. `make
// lint` runs both and is part of the default verify path and CI. That
// every message type is wired into the codec is internal/proto's tests'
// job (TestEveryMessageTypeIsSampled and the round trips).
//
// internal/conform is the conformance + chaos matrix harness behind
// cmd/rpcv-sim: it boots a real loopback cluster per cell of the
// configuration matrix (the coordinators' store), drives one
// deterministic workload through every cell, and injects the fault
// taxonomy from a
// declarative scenario timeline — asymmetric one-way partitions (a
// per-directed-link TCP proxy over netmodel.Rules), slow, failing and
// torn disks mid-group-commit (store.FaultPlan wrapping the store),
// stalled-not-dead coordinators (frozen event loops behind a live TCP
// listener), clock skew (rt.SetClockOffset behind node.Env.Now),
// and crash/restart. Because the workload output is
// a pure function of call identity, the expected result set is
// computed analytically and every cell must land on the identical
// (CallID -> result) digest — zero lost completed results under every
// fault, on every configuration. Failed verdicts capture flight
// bundles. `make sim` is the smoke (2 cells x 2 fault scenarios);
// `make sim-full` runs the full matrix, and CI runs it under the race
// detector; the frozen regression scenarios live in internal/conform's
// tests.
//
// internal/grid is the one way a real cluster is booted: named nodes on
// loopback TCP, each from a per-node boot func returning its rt.Config,
// with one address book (direct, or through per-directed-link fault
// proxies) and Kill, Restart and Attach. The conformance harness, the
// quickstart example and the real-TCP tests boot through it.
//
// See README.md for the package tour and the sched subsystem
// overview. The benchmarks in bench_test.go regenerate each figure;
// cmd/rpcv-bench prints them as tables.
package rpcv
